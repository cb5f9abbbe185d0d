//! A minimal JSON value, writer, and parser.
//!
//! Criterion-style crates pull in `serde_json`; this workspace builds
//! offline, so the trace exporter carries its own ~200-line JSON layer.
//! The writer and parser are inverses for everything the exporter emits,
//! which is what lets round-trip tests read trace files back without any
//! external dependency.

use std::collections::BTreeMap;
use std::fmt;

/// Largest magnitude rendered as a bare integer — beyond this an `f64`
/// can no longer represent every integer exactly.
const MAX_EXACT_INT: f64 = 9.0e15;

/// A JSON value. Numbers are `f64` (counter totals far below 2^53 in
/// practice); object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer (rounded), when it fits.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if !v.is_finite() || v < 0.0 || v > MAX_EXACT_INT {
            return None;
        }
        let rounded = v.round();
        Some(rounded as u64)
    }

    /// Render as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(v) => out.push_str(&render_num(*v)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Integral finite values print as integers, everything else in Rust's
/// shortest-round-trip float form; non-finite values (invalid in JSON)
/// degrade to `null`.
fn render_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let rounded = v.round();
    if (v - rounded).abs() <= f64::EPSILON * v.abs().max(1.0) && rounded.abs() < MAX_EXACT_INT {
        let int = rounded as i64;
        return int.to_string();
    }
    format!("{v}")
}

/// Escape a string for embedding between JSON quotes.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSON document (the whole input must be consumed, modulo
/// trailing whitespace).
#[must_use = "the parsed value or error carries the whole result"]
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Counter name → value from a JSON-lines trace export (the
/// [`crate::to_jsonl`] schema). Every line must parse: a torn or
/// malformed line, or a counter without a name or an integral value, is
/// an error naming the line.
#[must_use = "the counters or the error naming the bad line are the whole result"]
pub fn counters(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let bad = |why: String| format!("trace line {}: {why}: {line:?}", i + 1);
        let v = parse(line).map_err(|e| bad(e.to_string()))?;
        if v.get("type").and_then(Value::as_str) == Some("counter") {
            let name = v.get("name").and_then(Value::as_str);
            let (name, value) = name.zip(v.get("value").and_then(Value::as_u64)).ok_or_else(|| {
                bad("counter without a name or an integral value".into())
            })?;
            out.insert(name.to_string(), value);
        }
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { at: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| ParseError { at: start, message: format!("bad number `{text}`") })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
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
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    match s.chars().next() {
                        Some(c) => {
                            out.push(c);
                            self.pos += c.len_utf8();
                        }
                        None => return Err(self.err("unterminated string")),
                    }
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u` (cursor already past the `u`),
    /// combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("42", Value::Num(42.0)),
            ("-7", Value::Num(-7.0)),
            ("\"hi\"", Value::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.render()).unwrap(), value, "{text}");
        }
        let v = parse("1.5e3").unwrap();
        assert!((v.as_f64().unwrap() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("sweep.worker".into())),
            ("parent".into(), Value::Null),
            ("items".into(), Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)])),
            ("ok".into(), Value::Bool(true)),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(v.get("name").and_then(Value::as_str), Some("sweep.worker"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π 🦀";
        let v = Value::Str(nasty.into());
        assert_eq!(parse(&v.render()).unwrap().as_str(), Some(nasty));
        // Canonical escapes parse too.
        assert_eq!(parse(r#""éA""#).unwrap().as_str(), Some("éA"));
        // Surrogate pair.
        assert_eq!(parse(r#""🦀""#).unwrap().as_str(), Some("🦀"));
        assert!(parse(r#""\ud83e""#).is_err());
    }

    #[test]
    fn integers_render_bare() {
        assert_eq!(Value::Num(56.0).render(), "56");
        assert_eq!(Value::Num(0.0).render(), "0");
        assert_eq!(Value::Num(2.5).render(), "2.5");
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn as_u64_is_checked() {
        assert_eq!(Value::Num(56.0).as_u64(), Some(56));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Num(1.0e300).as_u64(), None);
        assert_eq!(Value::Str("56".into()).as_u64(), None);
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for text in ["{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{,}"] {
            let e = parse(text).unwrap_err();
            assert!(e.at <= text.len(), "{text}: {e}");
        }
        let e = parse("[1, x]").unwrap_err();
        assert!(e.to_string().contains("byte 4"), "{e}");
    }

    #[test]
    fn counters_read_an_export_and_name_a_torn_line() {
        let text = r#"{"type":"counter","name":"a","value":3}
{"type":"gauge","name":"b","value":0.5}
{"type":"counter","name":"c","value":-1}
{"type":"counter","na"#;
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(counters(&lines[..2].join("\n")).unwrap(), BTreeMap::from([("a".into(), 3)]));
        assert!(counters(&lines[..3].join("\n")).unwrap_err().starts_with("trace line 3:"));
        assert!(counters(&lines[3..].join("\n")).unwrap_err().starts_with("trace line 1:"));
    }
}
