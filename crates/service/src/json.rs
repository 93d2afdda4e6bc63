//! A minimal JSON value model with a recursive-descent parser and an
//! emitter.
//!
//! The workspace builds fully offline and its vendored `serde` is a
//! marker-trait shim (see `third_party/README.md`), so the wire protocol
//! cannot lean on `serde_json`. This module is the complement of the
//! hand-rolled JSON *writers* already in `geomap_core::metrics` /
//! `geomap_core::trace`: a reader/writer pair for whole documents, small
//! enough to audit and strict enough for a network-facing daemon
//! (numbers must be finite, strings must close, trailing garbage is an
//! error).

use geomap_core::metrics::escape_json;
use std::fmt::Write as _;

/// 2^53: every integer up to it is exactly an `f64`.
const F64_EXACT: u64 = 1 << 53;

/// A parsed JSON value. Objects preserve insertion order so emitted
/// documents are stable for golden tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number carried as `f64`.
    Num(f64),
    /// An unsigned integer above 2^53, where `f64` stops holding every
    /// integer, carried as its exact digits so every `u64` field
    /// survives the v1 wire (see [`Json::uint`]).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The JSON number for an unsigned integer: a [`Json::Num`] while
    /// `f64` holds every integer up to it (2^53), a [`Json::Int`] above,
    /// which emits its exact digits.
    pub fn uint(v: u64) -> Json {
        if v <= F64_EXACT {
            Json::Num(v as f64)
        } else {
            Json::Int(v)
        }
    }

    /// The numeric payload as a non-negative integer, rejecting
    /// fractional, negative, or out-of-range values. The bound is
    /// strict: `u64::MAX as f64` rounds *up* to 2^64, which is not a
    /// valid u64, so it must not be accepted and saturated. Integer
    /// literals above 2^53 parse as [`Json::Int`] and come back exact.
    pub fn as_u64(&self) -> Option<u64> {
        if let Json::Int(v) = self {
            return Some(*v);
        }
        let x = self.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x < u64::MAX as f64).then_some(x as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True when this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Emit compact JSON (no whitespace). Non-finite numbers emit as
    /// `null`, mirroring [`geomap_core::JsonLinesSink`].
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => write!(out, "{v}").expect("writing to String cannot fail"),
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's f64 Display is the shortest string that
                    // parses back to the same bits, so numbers survive a
                    // round-trip bit-identically.
                    write!(out, "{x}").expect("writing to String cannot fail");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_json(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(k, out);
                    out.push_str("\":");
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document, rejecting trailing non-whitespace.
    /// Nesting beyond [`MAX_DEPTH`] containers is an error, not a stack
    /// overflow — the parser recurses, and this daemon parses
    /// attacker-supplied lines.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The wire protocol
/// nests three levels; 128 leaves two orders of magnitude of headroom
/// while keeping the recursive parser far from any thread's stack limit.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.pos + 4;
                            let hex = self
                                .bytes
                                .get(self.pos..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos = end;
                            // Surrogate pairs are not needed by this
                            // protocol (all strings are CSV/identifiers);
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Collect the longest run of plain bytes in one go.
                    let start = self.pos - 1;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        let x: f64 = text
            .parse()
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number {text:?} at byte {start}"));
        }
        // An integer literal from 2^53 up is exact only as a `u64`, unless
        // it is the very text an `f64` prints (then it stays that `f64`,
        // so floats keep round-tripping bit-identically).
        if x >= F64_EXACT as f64 && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(v) = text.parse::<u64>() {
                if x.to_string() != text {
                    return Ok(Json::Int(v));
                }
            }
        }
        Ok(Json::Num(x))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Convenience: an object from key/value pairs.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-1.5", "1e-3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.emit()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn floats_roundtrip_bit_identically() {
        for &x in &[0.1, 1.0 / 3.0, 6.02e23, -0.0961, f64::MIN_POSITIVE] {
            let v = Json::Num(x);
            let back = Json::parse(&v.emit()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2,{"b":"c\nd"}],"e":null,"f":{"g":true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.emit(), text);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c\nd")
        );
        assert!(v.get("e").unwrap().is_null());
        assert_eq!(v.get("f").unwrap().get("g").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn embedded_csv_strings_survive() {
        let csv = "src,dst,bytes,msgs\n0,1,5,1\n1,0,5,1\n";
        let v = obj(vec![("pattern", Json::Str(csv.into()))]);
        let back = Json::parse(&v.emit()).unwrap();
        assert_eq!(back.get("pattern").unwrap().as_str(), Some(csv));
    }

    #[test]
    fn malformed_inputs_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "nul",
            "1.2.3",
            "{} garbage",
            "[1] 2",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn as_u64_rejects_out_of_range() {
        // `u64::MAX as f64` rounds up to 2^64, one past the valid
        // range; accepting it would silently saturate to u64::MAX.
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
        // The largest f64 integer below 2^64 is still in range.
        let top = (u64::MAX as f64).next_down();
        assert_eq!(Json::Num(top).as_u64(), Some(top as u64));
        assert_eq!(Json::Num(9007199254740992.0).as_u64(), Some(1 << 53));
    }

    #[test]
    fn integers_past_two_to_the_53_round_trip_exactly() {
        for v in [(1 << 53) + 1, 1 << 60, u64::MAX - 1, u64::MAX] {
            let back = Json::parse(&Json::uint(v).emit()).unwrap();
            assert_eq!(back.as_u64(), Some(v), "{v}");
        }
        // Up to 2^53 the emitted bytes are the plain `f64` ones.
        assert_eq!(Json::uint(1 << 53), Json::Num(9007199254740992.0));
        assert_eq!(Json::uint(1 << 53).emit(), "9007199254740992");
        // The digits an `f64` prints parse back to that `f64`.
        let x = (1u64 << 60) as f64;
        assert_eq!(Json::parse(&Json::Num(x).emit()).unwrap(), Json::Num(x));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let text = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&text).is_ok());
        let objs = format!("{}1{}", "{\"k\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objs).is_ok());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_crash() {
        // Far beyond the cap: without the depth check this recursion
        // would blow the stack long before hitting a parse error.
        for depth in [MAX_DEPTH + 1, 100_000] {
            let text = format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
            let err = Json::parse(&text).unwrap_err();
            assert!(err.contains("nesting deeper"), "{err}");
        }
    }
}
