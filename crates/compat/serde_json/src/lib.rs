//! A self-contained JSON value type with the small slice of the
//! `serde_json` API this workspace uses: the [`json!`] macro,
//! [`to_string`] / [`to_string_pretty`] over [`Value`], and `&str`
//! indexing. Vendored because the build environment has no registry
//! access (see `crates/compat/README.md`).

use std::fmt::{self, Write as _};

/// A parsed/constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    /// Insertion-ordered, like `serde_json` with `preserve_order`.
    Object(Vec<(String, Value)>),
}

/// A JSON number: integer or finite float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    I(i64),
    U(u64),
    F(f64),
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::I(v) => write!(f, "{v}"),
            Number::U(v) => write!(f, "{v}"),
            Number::F(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    // JSON has no Inf/NaN; serde_json emits null.
                    write!(f, "null")
                }
            }
        }
    }
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(Number::I(v)) => Some(*v as f64),
            Value::Number(Number::U(v)) => Some(*v as f64),
            Value::Number(Number::F(v)) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U(v)) => Some(*v),
            Value::Number(Number::I(v)) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member lookup; `Null` for misses, like `serde_json`'s `get`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(Number::I(v)) => Some(*v),
            Value::Number(Number::U(v)) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}
impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}
impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}
impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}
impl PartialEq<u64> for Value {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}
impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        match self {
            Value::Number(Number::I(v)) => v == other,
            Value::Number(Number::U(v)) => i64::try_from(*v).ok().as_ref() == Some(other),
            _ => false,
        }
    }
}
impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(Number::F(v)) if v == other)
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(Number::F(v))
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Number(Number::F(v as f64))
    }
}
macro_rules! from_int {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Self { Value::Number(Number::$variant(v as $cast)) }
        })*
    };
}
from_int!(i8 => I as i64, i16 => I as i64, i32 => I as i64, i64 => I as i64,
          u8 => U as u64, u16 => U as u64, u32 => U as u64, u64 => U as u64,
          usize => U as u64);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// Serialization error (construction from `Value` cannot fail; the
/// type exists so call sites keep their `Result` handling).
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json serialization error")
    }
}
impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// In pretty mode, start a new line indented to `level`.
fn newline(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write!(out, "{n}").expect("writing to a String"),
        Value::String(s) => escape_into(out, s),
        Value::Array(a) => {
            if a.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push(']');
        }
        Value::Object(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, indent, level + 1);
                escape_into(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            newline(out, indent, level);
            out.push('}');
        }
    }
}

/// Compact one-line JSON.
pub fn to_string(v: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, v, None, 0);
    Ok(out)
}

/// Two-space-indented JSON, matching `serde_json::to_string_pretty`.
pub fn to_string_pretty(v: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, v, Some(2), 0);
    Ok(out)
}

/// A parse failure with the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}
impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers deeper than this are rejected rather than risking a
/// stack overflow on adversarial input (the server feeds this parser
/// raw request bodies).
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> std::result::Result<T, ParseError> {
        Err(ParseError { offset: self.pos, message: message.into() })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> std::result::Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> std::result::Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(format!("unexpected character '{}'", c as char)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> std::result::Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn parse_string(&mut self) -> std::result::Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return self.err("invalid low surrogate");
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return self.err("unpaired surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return self.err("unpaired surrogate");
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                            continue; // parse_hex4 already advanced past the digits
                        }
                        _ => return self.err("invalid escape sequence"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => {
                    // Copy one UTF-8 scalar; the input is a &str so the
                    // boundaries are already valid.
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| ParseError { offset: self.pos, message: "invalid UTF-8".into() })?;
                    out.push_str(s);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> std::result::Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok());
        match hex {
            Some(v) => {
                self.pos = end;
                Ok(v)
            }
            None => self.err("invalid \\u escape"),
        }
    }

    fn parse_number(&mut self) -> std::result::Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(u)));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(i)));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Value::Number(Number::F(f))),
            _ => Err(ParseError { offset: start, message: format!("invalid number '{text}'") }),
        }
    }

    fn parse_array(&mut self) -> std::result::Result<Value, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> std::result::Result<Value, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parse a JSON text into a [`Value`].
///
/// Strict where it matters for a service boundary: rejects trailing
/// garbage, unterminated strings, bad escapes, non-finite numbers and
/// pathological nesting, and reports the byte offset of the failure.
pub fn from_str(s: &str) -> std::result::Result<Value, ParseError> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after value");
    }
    Ok(v)
}

/// Construct a [`Value`] from JSON-ish literal syntax.
///
/// Unlike the real `serde_json::json!`, nested containers are not
/// parsed structurally: a nested object or array literal must be its
/// own `json!({...})` / `json!([...])` call (or any expression
/// convertible via `Value::from`, e.g. a `Vec`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($item) ),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::Value::from($val)) ),* ])
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_roundtrips_to_text() {
        let v = json!({
            "a": 1u64,
            "b": json!([true, json!(null)]),
            "c": json!({ "nested": "x\"y" }),
            "d": Option::<bool>::None,
        });
        assert_eq!(v["a"].as_u64(), Some(1));
        assert_eq!(v["b"][0], json!(true));
        assert!(v["d"].is_null());
        assert!(v["missing"].is_null());
        let s = to_string(&v).unwrap();
        assert_eq!(
            s,
            r#"{"a":1,"b":[true,null],"c":{"nested":"x\"y"},"d":null}"#
        );
        let p = to_string_pretty(&v).unwrap();
        assert!(p.contains("\n  \"a\": 1"));
    }

    #[test]
    fn numbers_display() {
        assert_eq!(to_string(&json!(1.5f64)).unwrap(), "1.5");
        assert_eq!(to_string(&json!(-3i64)).unwrap(), "-3");
        assert_eq!(to_string(&json!(u64::MAX)).unwrap(), u64::MAX.to_string());
    }

    #[test]
    fn parse_round_trips_constructed_values() {
        let v = json!({
            "a": 1u64,
            "b": json!([true, json!(null), -7i64, 2.5f64]),
            "c": json!({ "nested": "x\"y\n\t\\z" }),
            "d": "unicode: é ☃",
        });
        let text = to_string(&v).unwrap();
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed, v);
        // And the pretty form parses back to the same value.
        assert_eq!(from_str(&to_string_pretty(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str(" true ").unwrap(), json!(true));
        assert_eq!(from_str("0").unwrap(), json!(0u64));
        assert_eq!(from_str("-12").unwrap().as_i64(), Some(-12));
        assert_eq!(from_str("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(from_str(&u64::MAX.to_string()).unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(from_str(r#""\u00e9""#).unwrap(), json!("é"));
        assert_eq!(from_str(r#""\ud83d\ude00""#).unwrap(), json!("😀"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
            "{\"a\" 1}", "[1] extra", "\"\\q\"", "\"\\ud800\"", "nan", "01x",
        ] {
            let err = from_str(bad).expect_err(bad);
            assert!(!err.message.is_empty());
            assert!(err.to_string().contains("invalid JSON at byte"));
        }
    }

    #[test]
    fn parse_rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = from_str(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn accessors() {
        let v = from_str(r#"{"k": 3, "neg": -4, "o": {"x": 1}}"#).unwrap();
        assert_eq!(v["k"].as_i64(), Some(3));
        assert_eq!(v["neg"].as_i64(), Some(-4));
        assert_eq!(v["o"].as_object().map(|m| m.len()), Some(1));
        assert!(v.as_object().is_some());
        assert!(v["k"].as_object().is_none());
    }
}
