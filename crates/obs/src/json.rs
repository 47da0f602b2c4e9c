//! A minimal JSON value type with writer and parser.
//!
//! The observability layer must not pull serialization dependencies
//! into every crate of the workspace (and the build environment has no
//! crates.io access anyway), so manifests are written and read through
//! this self-contained implementation. It supports the full JSON data
//! model except exotic number forms: numbers are `f64`, which is exact
//! for the integer counters below 2^53 that manifests contain.
//!
//! An object is a `Vec` of fields sorted by key rather than a map: a
//! response builds thousands of small objects from static keys, and a
//! sorted `Vec` costs one allocation each, where a `BTreeMap` costs a
//! tree node and an owned key string per field. Output is the same
//! either way, because both write fields in key order.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its fields sorted by key, each key once, so output
    /// is stable and [`Json::get`] can binary-search. [`Json::obj`] and
    /// [`parse`] build it that way; an object built by hand must be too.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, in any order. A key given
    /// twice keeps its last value, as inserting into a map would.
    pub fn obj<K: Into<Cow<'static, str>>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        let mut fields: Vec<(Cow<'static, str>, Json)> =
            pairs.into_iter().map(|(k, v)| (k.into(), v)).collect();
        if !fields.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable, so a duplicate key's values stay in input order;
            // `dedup_by` then moves each later value over the earlier.
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.dedup_by(|later, earlier| {
                let duplicate = later.0 == earlier.0;
                if duplicate {
                    std::mem::swap(later, earlier);
                }
                duplicate
            });
        }
        Json::Obj(fields)
    }

    /// The value at `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields
                .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                .ok()
                .map(|i| &fields[i].1),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an integer, when this is a whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on a single line with no whitespace — the JSONL form
    /// used by the serve access log.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, indent + 1);
                    item.write(out, indent + 1);
                }
                new_line(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                new_line(out, indent);
                out.push('}');
            }
        }
    }
}

/// Starts a new line indented `indent` levels of two spaces, with one
/// copy for the usual depths.
fn new_line(out: &mut String, indent: usize) {
    const LINE: &str = "\n                                ";
    const LEVELS: usize = (LINE.len() - 1) / 2;
    out.push_str(&LINE[..1 + 2 * indent.min(LEVELS)]);
    for _ in LEVELS..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        // A whole number prints as the integer (`-0.0` as `0`), here
        // with a digit loop rather than the formatting machinery.
        let whole = n as i64;
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = whole.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        if whole < 0 {
            at -= 1;
            digits[at] = b'-';
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Every byte that needs an escape is ASCII, so the runs between
    // them end on char boundaries; a string with none is one copy.
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why parsing failed, with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so without a cap a body of nothing but
/// `[` overflows the thread's stack; past the cap it returns a
/// [`ParseError`] instead.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error, and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one container one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances
                    // by whole scalars, so it sits on a char boundary.
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj([
            ("seed", Json::Num(42.0)),
            ("scale", Json::Num(0.25)),
            ("name", Json::Str("repro \"all\"\n".into())),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "spans",
                Json::Arr(vec![Json::obj([
                    ("name", Json::Str("sec3a".into())),
                    ("total_ns", Json::Num(123456789.0)),
                ])]),
            ),
        ]);
        let text = doc.pretty();
        let back = parse(&text).expect("round trip parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let doc = Json::obj([
            ("kind", Json::Str("trace-summary".into())),
            ("latency_us", Json::Num(125.0)),
            ("cache", Json::Null),
            ("ids", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        let text = doc.compact();
        assert!(!text.contains('\n'));
        assert!(!text.contains(' '));
        assert_eq!(parse(&text).expect("round trip"), doc);
        assert_eq!(Json::Obj(Vec::new()).compact(), "{}");
        assert_eq!(Json::Arr(Vec::new()).compact(), "[]");
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s": "a\tbAé"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\tbAé"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1, ]").is_err());
        assert!(parse("").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_is_accepted_up_to_the_cap() {
        let value = parse(&nested_arrays(MAX_DEPTH)).expect("the cap itself parses");
        let mut depth = 0;
        let mut node = &value;
        while let Some(items) = node.as_arr() {
            depth += 1;
            match items.first() {
                Some(inner) => node = inner,
                None => break,
            }
        }
        assert_eq!(depth, MAX_DEPTH);
        let object = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&object).is_ok(), "objects share the cap");
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error() {
        let err = parse(&nested_arrays(MAX_DEPTH + 1)).expect_err("one past the cap");
        assert_eq!(err.offset, MAX_DEPTH, "points at the first refused opener");
        assert!(err.message.contains("nesting"), "{err}");
        let object = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&object).is_err());
        // Far past the cap is refused the same way, without recursing
        // once per opener.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // Each character once re-validated the whole rest of the input,
        // so a 1 MiB string took about 20 s even in release.
        let doc = format!("\"{}é\"", "a".repeat(1 << 20));
        let started = std::time::Instant::now();
        let value = parse(&doc).expect("parses");
        assert_eq!(value.as_str().map(str::len), Some((1 << 20) + 2));
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn pretty_indents_two_spaces_per_level_at_any_depth() {
        let mut doc = Json::Num(1.0);
        for level in 0..40 {
            doc = if level % 2 == 0 {
                Json::Arr(vec![doc])
            } else {
                Json::obj([("k", doc)])
            };
        }
        let mut expected = String::new();
        for level in 0..40 {
            let indent = "  ".repeat(level + 1);
            expected.push_str(if level % 2 == 0 { "{\n" } else { "[\n" });
            expected.push_str(&indent);
            if level % 2 == 0 {
                expected.push_str("\"k\": ");
            }
        }
        expected.push('1');
        for level in (0..40).rev() {
            expected.push('\n');
            expected.push_str(&"  ".repeat(level));
            expected.push(if level % 2 == 0 { '}' } else { ']' });
        }
        expected.push('\n');
        assert_eq!(doc.pretty(), expected);
    }

    #[test]
    fn integers_print_without_exponent() {
        let mut s = String::new();
        write_number(&mut s, 4_503_599_627_370_496.0);
        assert_eq!(s, "4503599627370496");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 7, "a": [1, 2]}"#).expect("parses");
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("nope"), None);
    }
}
