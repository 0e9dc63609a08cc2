//! The workspace's JSON codec: one value type, one parser, one serializer.
//!
//! * **Event lines** ([`Object::parse`], [`Object::to_json`]): one *flat*
//!   object per line — string, number, boolean, or null values. Flatness
//!   is a deliberate schema constraint (it keeps every consumer —
//!   `obs_report`, CI validation, `jq`-style ad-hoc tooling — trivial), so
//!   the line parser rejects nested containers.
//! * **Documents** ([`Value::parse`], [`Value::to_pretty`]): any JSON, such
//!   as the drills' indented `BENCH_*.json` reports and the data-lake
//!   sources `cem-graph` maps into a graph. Nesting deeper than
//!   [`MAX_DEPTH`] is an error, not a stack overflow.
//!
//! Object fields keep their order (and duplicates), which makes
//! serialize → parse → serialize round-trips byte-stable. Strings escape
//! `"`, `\` and every character below U+0020; numbers are emitted through
//! Rust's shortest-roundtrip `f64` formatting, and non-finite numbers as
//! `null` (JSON has no NaN or ∞). Values beyond 2^53 (where `f64` loses
//! integer precision) must be encoded as strings by the caller —
//! [`crate::events::Event`] does this for seeds and fingerprints.

use std::fmt::{self, Write as _};

/// Deepest container nesting [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Object),
}

impl Value {
    /// Parse one JSON document (any value at the top level).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        Parser::new(input, MAX_DEPTH).document(Parser::value)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Object field lookup (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// `x` at `decimals` fraction digits — the decimal `format!("{x:.N}")`
    /// prints, so a report carries a measurement at the precision it has.
    pub fn fixed(x: f64, decimals: usize) -> Value {
        Value::Num(format!("{x:.decimals$}").parse().unwrap_or(x))
    }

    /// Serialize as compact JSON (no whitespace, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, None);
        out
    }

    /// Serialize as indented JSON: two spaces per level, one member per
    /// line (no trailing newline).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(0));
        out
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

/// The shortest decimal that reads back as the same `f32`, not the
/// widened binary value (`0.1f32` writes as `0.1`).
impl From<f32> for Value {
    fn from(n: f32) -> Self {
        Value::Num(n.to_string().parse().unwrap_or(n as f64))
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Num(n as f64)
            }
        }
    )*};
}
from_int!(u64, usize);

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Obj(o)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// `None` is `null`.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// A JSON object with preserved field order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(pub Vec<(String, Value)>);

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    /// Append a field.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.0.push((key.into(), value.into()));
    }

    /// Append a field, builder style.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// The value of `key`; a repeated key resolves to its last occurrence.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.0.len() * 16 + 2);
        write_object(&mut out, self, None);
        out
    }

    /// Parse one flat event line: an object whose values are all scalars.
    /// Errors carry the byte offset.
    pub fn parse(input: &str) -> Result<Object, JsonError> {
        Parser::new(input, 1).document(Parser::object)
    }
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Write `value`; `indent` is `None` for compact output, or the current
/// nesting level for indented output.
fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        // Integral values print without a fraction.
        Value::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
            let _ = write!(out, "{}", *n as i64);
        }
        Value::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => write_string(out, s),
        Value::Arr(items) => {
            write_members(out, ['[', ']'], items.iter().map(|v| (None, v)), indent)
        }
        Value::Obj(o) => write_object(out, o, indent),
    }
}

fn write_object(out: &mut String, o: &Object, indent: Option<usize>) {
    write_members(out, ['{', '}'], o.0.iter().map(|(k, v)| (Some(k.as_str()), v)), indent);
}

/// The members of an array (no keys) or an object (keys), between
/// `brackets`.
fn write_members<'a>(
    out: &mut String,
    brackets: [char; 2],
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
    indent: Option<usize>,
) {
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", level));
    };
    out.push(brackets[0]);
    let mut empty = true;
    for (key, value) in members {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        write_value(out, value, indent.map(|level| level + 1));
    }
    if let (Some(level), false) = (indent, empty) {
        newline(out, level);
    }
    out.push(brackets[1]);
}

fn write_string(out: &mut String, s: &str) {
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

/// Recursive descent over `text`, at most `max_depth` containers deep.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    max_depth: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, max_depth: usize) -> Self {
        Parser { text, pos: 0, max_depth, depth: 0 }
    }

    /// The whole input as one `item`, surrounded by optional whitespace.
    fn document<T>(mut self, item: fn(&mut Self) -> Result<T, JsonError>) -> Result<T, JsonError> {
        self.skip_ws();
        let parsed = item(&mut self)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing bytes after the document"));
        }
        Ok(parsed)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError { offset: self.pos, message: message.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'{') => Ok(Value::Obj(self.object()?)),
            Some(b'[') => self.array(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Step into a container, refusing to pass the depth bound.
    fn enter(&mut self, open: u8) -> Result<(), JsonError> {
        if self.depth == self.max_depth {
            return Err(self.err(if self.max_depth == 1 {
                "nested containers are outside the flat event schema"
            } else {
                "containers nest deeper than MAX_DEPTH"
            }));
        }
        self.depth += 1;
        self.expect(open)
    }

    /// The members of a container up to its `close` byte, each read by
    /// `member` after leading whitespace.
    fn members(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            member(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Object, JsonError> {
        self.enter(b'{')?;
        let mut fields = Vec::new();
        self.members(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Object(fields))
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.enter(b'[')?;
        let mut items = Vec::new();
        self.members(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Arr(items))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let numeric = |b: u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        while self.peek().is_some_and(numeric) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            Ok(_) => {
                Err(JsonError { offset: start, message: format!("number {text:?} out of range") })
            }
            Err(_) => Err(JsonError { offset: start, message: format!("invalid number {text:?}") }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte in
            // one slice: all three are ASCII, so the cut is a char boundary.
            let run = self.text[self.pos..]
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.text.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let Some(esc) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or_else(|| self.err("invalid \\u escape"))?;
                self.pos += 4;
                char::from_u32(hex).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: &[(&str, Value)]) -> Object {
        Object(fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect())
    }

    #[test]
    fn round_trip_preserves_fields_and_order() {
        let o = obj(&[
            ("type", "epoch_end".into()),
            ("epoch", Value::Num(3.0)),
            ("loss", Value::Num(0.125)),
            ("diverged", Value::Bool(false)),
            ("note", Value::Null),
        ]);
        let line = o.to_json();
        let parsed = Object::parse(&line).unwrap();
        assert_eq!(parsed, o);
        // Byte-stable second round.
        assert_eq!(parsed.to_json(), line);
    }

    #[test]
    fn documents_serialize_compact_and_indented() {
        let doc = Value::Obj(obj(&[
            ("n", Value::Num(1.0)),
            ("rows", Value::Arr(vec![Value::Obj(obj(&[("k", Value::Bool(true))]))])),
            ("none", Value::Arr(vec![])),
            ("e", Value::Obj(Object::new())),
        ]));
        assert_eq!(doc.to_json(), r#"{"n":1,"rows":[{"k":true}],"none":[],"e":{}}"#);
        let want = "{\n  \"n\": 1,\n  \"rows\": [\n    {\n      \"k\": true\n    }\n  ],\n  \
                    \"none\": [],\n  \"e\": {}\n}";
        assert_eq!(doc.to_pretty(), want);
    }

    #[test]
    fn integers_print_without_fraction() {
        let o = obj(&[("n", Value::Num(42.0))]);
        assert_eq!(o.to_json(), r#"{"n":42}"#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let o = obj(&[("n", Value::Num(f64::NAN))]);
        assert_eq!(o.to_json(), r#"{"n":null}"#);
        for n in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Arr(vec![Value::Num(n)]).to_pretty(), "[\n  null\n]");
        }
        // A literal too large for f64 is refused rather than read as ∞.
        assert!(Value::parse("1e999").is_err());
    }

    #[test]
    fn conversions_keep_the_printed_precision() {
        assert_eq!(Value::from(0.1f32).to_json(), "0.1");
        assert_eq!(Value::from(0.275_658_37_f32).to_json(), "0.27565837");
        assert_eq!(Value::fixed(0.123_456, 3).to_json(), "0.123");
        assert_eq!(Value::fixed(2.0, 1).to_json(), "2");
        assert_eq!(Value::fixed(1234.5678, 0).to_json(), "1235");
        assert_eq!(Value::from(Some(3usize)), Value::Num(3.0));
        assert_eq!(Value::from(None::<u64>), Value::Null);
        assert_eq!(Value::from(vec![1usize, 2]).to_json(), "[1,2]");
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(Value::parse("-3.5e2").unwrap(), Value::Num(-350.0));
        assert_eq!(Value::parse(" \"hi\\nthere\" ").unwrap(), Value::Str("hi\nthere".into()));
    }

    #[test]
    fn nested_documents_parse() {
        let doc = r#"{"bird": {"name": "laysan albatross", "colors": ["white", "black"], "wingspan": 2.03, "rare": false, "habitat": "@ref:hawaii"}}"#;
        let v = Value::parse(doc).unwrap();
        let bird = v.get("bird").unwrap();
        assert_eq!(bird.get("name").and_then(Value::as_str), Some("laysan albatross"));
        assert!(matches!(bird.get("colors"), Some(Value::Arr(colors)) if colors.len() == 2));
        assert_eq!(bird.get("wingspan").and_then(Value::as_f64), Some(2.03));
        assert_eq!(bird.get("rare").and_then(Value::as_bool), Some(false));
        // `@ref:` strings are plain strings to the codec.
        assert_eq!(bird.get("habitat").and_then(Value::as_str), Some("@ref:hawaii"));
        // Repeated keys are all kept, in order; lookup takes the last.
        let dup = Value::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(dup.as_object().unwrap().0.len(), 2);
        assert_eq!(dup.get("k"), Some(&Value::Num(2.0)));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "line\nbreak \"quoted\" back\\slash\ttab\u{1}\u{1f}";
        let o = obj(&[("s", tricky.into())]);
        let line = o.to_json();
        assert!(line.contains("\\u0001") && line.contains("\\u001f"), "{line}");
        let parsed = Object::parse(&line).unwrap();
        assert_eq!(parsed.str("s"), Some(tricky));
        assert_eq!(Value::parse(r#""\b\f\/""#).unwrap(), Value::Str("\u{8}\u{c}/".into()));
        // Raw control characters are not JSON.
        assert!(Value::parse("\"a\u{1}b\"").is_err());
    }

    #[test]
    fn unicode_survives() {
        let o = obj(&[("s", "CrossEM⁺ — テスト".into())]);
        let parsed = Object::parse(&o.to_json()).unwrap();
        assert_eq!(parsed.str("s"), Some("CrossEM⁺ — テスト"));
        assert_eq!(Value::parse("\"\\u00e9\"").unwrap(), Value::Str("é".into()));
        assert_eq!(Value::parse("\"héllo\"").unwrap(), Value::Str("héllo".into()));
        assert!(Value::parse(r#""\ud83d""#).is_err(), "a surrogate is not a char");
    }

    #[test]
    fn nested_containers_are_rejected() {
        let err = Object::parse(r#"{"a": {"b": 1}}"#).unwrap_err();
        assert!(err.message.contains("flat"), "{err}");
        assert!(Object::parse(r#"{"a": [1,2]}"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Value::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(Value::parse(&deep(1_000_000)).is_err());
        assert!(Value::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn malformed_lines_error_with_offset() {
        for bad in ["", "{", r#"{"a" 1}"#, r#"{"a": 1} extra"#, r#"{"a": 12..5}"#, r#"{"a": }"#] {
            assert!(Object::parse(bad).is_err(), "{bad:?}");
            assert!(Value::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Value::parse(r#"{"a": }"#).unwrap_err().offset, 6);
        assert_eq!(Value::parse("[1, 2").unwrap_err().offset, 5);
        assert!(Value::parse("tru").is_err());
        assert_eq!(Value::parse("1 2").unwrap_err().offset, 2);
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("\"\\x\"").is_err());
        assert!(Value::parse("\"\\u12\"").is_err());
        // An event line must be an object.
        assert!(Object::parse("[]").is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(Object::parse("{}").unwrap(), Object::new());
        assert_eq!(Object::parse(" { } ").unwrap(), Object::new());
        assert_eq!(Value::parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Arr(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(Object::new()));
    }
}
