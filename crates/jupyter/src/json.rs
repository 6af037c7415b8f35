//! A small, self-contained JSON codec.
//!
//! The Jupyter messaging protocol serializes headers and content as JSON.
//! No offline serializer crate is available, so this module implements the
//! subset of JSON the protocol needs (objects, arrays, strings with escapes,
//! numbers, booleans, null) from scratch: a recursive-descent parser and a
//! canonical encoder (object keys sorted, which `BTreeMap` gives us for
//! free).
//!
//! Both directions make one pass per string byte. The encoder copies each
//! run of characters that needs no escape with a single `push_str`, and
//! the parser appends each run between `"` and `\` as one slice of its
//! input. The encoded bytes are the same as escaping one character at a
//! time, so wire signatures over them do not change. Non-finite numbers
//! encode as `null`, since JSON has no NaN or infinity. A `\u` surrogate
//! pair decodes to the one scalar it encodes; a lone surrogate decodes to
//! U+FFFD.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; the protocol's numbers are small).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Builder-style insert; only meaningful on objects.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            _ => panic!("Json::with on non-object"),
        }
        self
    }

    /// Looks up `key` on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Encodes to compact JSON text.
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(self.len_hint());
        encode_into(self, &mut s);
        s
    }

    /// A cheap estimate of the encoded length (exact for escape-free
    /// strings and short numbers), used to size the output buffer once.
    pub(crate) fn len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Num(_) => 8,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => 2 + items.iter().map(|v| v.len_hint() + 1).sum::<usize>(),
            Json::Obj(map) => {
                2 + map
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.len_hint())
                    .sum::<usize>()
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

/// A JSON syntax error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

pub(crate) fn encode_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => encode_num(*n, out),
        Json::Str(s) => encode_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                encode_string(k, out);
                out.push(':');
                encode_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Writes a number: integral values below 9e15 in integer form, other
/// finite values in Rust's shortest round-trip form, and NaN and ±∞ as
/// `null`.
pub(crate) fn encode_num(n: f64, out: &mut String) {
    // Writing into a `String` cannot fail.
    let _ = if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// The length of the longest prefix of `bytes` holding no `"`, no `\`
/// and, with `controls`, no byte below 0x20. Eight bytes are tested at a
/// time with word arithmetic, then the word that holds the stop byte is
/// searched byte by byte.
fn plain_run(bytes: &[u8], controls: bool) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    // Nonzero iff some byte of `w` is below `n` (exact for n <= 0x80).
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & HIGHS;
    let has = |w: u64, b: u8| below(w ^ (ONES * u64::from(b)), 1) != 0;
    let mut len = 0;
    for chunk in bytes.chunks_exact(8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunks are 8 bytes"));
        if has(w, b'"') || has(w, b'\\') || (controls && below(w, 0x20) != 0) {
            break;
        }
        len += 8;
    }
    len + bytes[len..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || (controls && b < 0x20))
        .unwrap_or(bytes.len() - len)
}

/// Writes `s` as a quoted JSON string. Runs of characters that need no
/// escape are copied whole; only `"`, `\` and control characters are
/// escaped. Every escaped character is ASCII, so each run boundary is a
/// char boundary.
pub(crate) fn encode_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let i = run + plain_run(&bytes[run..], true);
        out.push_str(&s[run..i]);
        let Some(&b) = bytes.get(i) else { break };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
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
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice: both are
            // ASCII, so the run ends on a char boundary of the input.
            let run = self.pos;
            self.pos += plain_run(&self.bytes[run..], false);
            s.push_str(&self.text[run..self.pos]);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                _ => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.hex4()?;
                        s.push(self.scalar(code));
                    }
                    _ => return Err(self.err("bad escape")),
                },
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
            code = code * 16
                + (d as char)
                    .to_digit(16)
                    .ok_or_else(|| self.err("bad hex digit"))?;
        }
        Ok(code)
    }

    /// The scalar a `\u` escape with value `code` stands for. A high
    /// surrogate directly followed by a `\u` low surrogate combines with
    /// it (RFC 8259 §7); any other surrogate becomes U+FFFD.
    fn scalar(&mut self, code: u32) -> char {
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let resume = self.pos;
            self.pos += 2;
            match self.hex4() {
                Ok(low @ 0xDC00..=0xDFFF) => {
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return char::from_u32(combined).expect("a surrogate pair is a scalar");
                }
                // Not a low surrogate: leave that escape for the caller.
                _ => self.pos = resume,
            }
        }
        char::from_u32(code).unwrap_or('\u{fffd}')
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The char-at-a-time string encoder `encode_string` replaced, kept as
    /// the oracle its output must equal.
    fn encode_string_oracle(s: &str, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Strings mixing printable ASCII, multi-byte code points, control
    /// characters, quotes and backslashes, so runs start and end at UTF-8
    /// and escape boundaries.
    pub(crate) fn arb_text(max_len: usize) -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            6 => any::<char>(),
            2 => (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control character")),
            1 => Just('"'),
            1 => Just('\\'),
            1 => (0x80u32..0xD800).prop_map(|c| char::from_u32(c).expect("below surrogates")),
            1 => (0x10000u32..0x110000).prop_map(|c| char::from_u32(c).expect("astral plane")),
        ];
        proptest::collection::vec(ch, 0..max_len).prop_map(|cs| cs.into_iter().collect())
    }

    fn round_trip(text: &str) -> String {
        Json::parse(text).unwrap().encode()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(round_trip("null"), "null");
        assert_eq!(round_trip("true"), "true");
        assert_eq!(round_trip("false"), "false");
        assert_eq!(round_trip("42"), "42");
        assert_eq!(round_trip("-3.5"), "-3.5");
        assert_eq!(round_trip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(round_trip("[1,2,[3]]"), "[1,2,[3]]");
        assert_eq!(round_trip("{}"), "{}");
        assert_eq!(round_trip("[]"), "[]");
        // Keys are canonicalized (sorted).
        assert_eq!(round_trip("{\"b\":1,\"a\":2}"), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\nb\t\"q\"A""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"q\"A");
        // Control characters are re-escaped on encode.
        assert_eq!(Json::Str("a\u{1}b".into()).encode(), "\"a\\u0001b\"");
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ☃\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo ☃");
        assert_eq!(v.encode(), "\"héllo ☃\"");
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_replaced() {
        let pair = Json::parse(r#""a\ud83d\ude00b""#).unwrap();
        assert_eq!(pair.as_str(), Some("a\u{1F600}b"));
        let lone_high = Json::parse(r#""\ud83dx""#).unwrap();
        assert_eq!(lone_high.as_str(), Some("\u{fffd}x"));
        let lone_low = Json::parse(r#""\ude00""#).unwrap();
        assert_eq!(lone_low.as_str(), Some("\u{fffd}"));
        // A high surrogate before a non-surrogate escape keeps that escape.
        let high_then_bmp = Json::parse(r#""\ud83d\u0041""#).unwrap();
        assert_eq!(high_then_bmp.as_str(), Some("\u{fffd}A"));
        let high_then_high = Json::parse(r#""\ud83d\ud83d\ude00""#).unwrap();
        assert_eq!(high_then_high.as_str(), Some("\u{fffd}\u{1F600}"));
        assert!(Json::parse(r#""\ud83d\u00""#).is_err(), "truncated escape");
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = Json::object().with("x", n).encode();
            assert_eq!(text, "{\"x\":null}");
            assert_eq!(Json::parse(&text).unwrap().get("x"), Some(&Json::Null));
        }
        assert_eq!(Json::Num(-0.5).encode(), "-0.5");
        assert_eq!(Json::Num(1e300).encode(), format!("{}", 1e300));
    }

    #[test]
    fn numbers_with_exponents() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("2.5E-1").unwrap().as_f64(), Some(0.25));
    }

    #[test]
    fn accessors() {
        let v = Json::object()
            .with("s", "x")
            .with("n", 4u64)
            .with("b", true)
            .with("a", Json::Arr(vec![Json::Num(1.0)]));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse("{\"a\":}").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn display_matches_encode() {
        let v = Json::object().with("k", 1u64);
        assert_eq!(format!("{v}"), v.encode());
    }

    #[test]
    fn plain_run_stops_at_the_first_special_byte_in_any_word_position() {
        for stop in [b'"', b'\\', b'\n', 0x00, 0x1f] {
            for at in 0..24 {
                let mut bytes = vec![b'a'; 30];
                bytes[at] = stop;
                bytes[at + 3] = b'"';
                assert_eq!(plain_run(&bytes, true), at, "stop {stop:#x} at {at}");
                // Without `controls`, a control byte is part of the run.
                let want = if stop < 0x20 { at + 3 } else { at };
                assert_eq!(plain_run(&bytes, false), want, "stop {stop:#x} at {at}");
            }
        }
        let plain = "é☃😀 \u{7f}".repeat(5);
        assert_eq!(plain_run(plain.as_bytes(), true), plain.len());
        assert_eq!(plain_run(b"", true), 0);
    }

    proptest! {
        #[test]
        fn encode_string_matches_char_at_a_time_oracle(s in arb_text(64)) {
            let mut fast = String::new();
            encode_string(&s, &mut fast);
            let mut oracle = String::new();
            encode_string_oracle(&s, &mut oracle);
            prop_assert_eq!(&fast, &oracle);
            let parsed = Json::parse(&fast).expect("encoded strings parse");
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_scalar_panics() {
        let _ = Json::Null.with("k", 1u64);
    }
}
