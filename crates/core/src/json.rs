//! A minimal shared JSON implementation (RFC 8259 subset).
//!
//! The workspace builds offline with no crate-registry access, so
//! everything that speaks JSON — the run manifests in `hmcs-bench`, the
//! `hmcs-serve` evaluation daemon, the bench gate — shares this one
//! hand-rolled writer/parser pair instead of growing private copies.
//!
//! * [`json_str`] / [`json_num`] / [`push_num`] — writer primitives;
//!   [`push_num`] appends a number in place, so a renderer that builds
//!   one document pays no heap string per number. Every string that
//!   ends up inside a JSON document **must** pass through [`json_str`];
//!   in particular error messages that echo request content, where an
//!   unescaped quote or control byte would corrupt the document (or
//!   worse, let a caller inject structure).
//! * [`parse_json`] — a strict recursive-descent parser. It rejects
//!   trailing garbage, bare `NaN`/`Infinity` tokens, truncated
//!   documents, and — going beyond what RFC 8259 requires — duplicate
//!   object keys, which in this workspace always indicate a writer bug.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in document order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if this is a number with no
    /// fractional part that fits in a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders `s` as a quoted JSON string, escaping quotes, backslashes
/// and control characters.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Appends `x` to `out` as a JSON number. Rust's `{}` float formatting
/// never emits exponents, NaN excepted — non-finite values become
/// `null` so the document stays valid JSON. The rendering is the
/// shortest string that round-trips to the same bits, so a reader that
/// parses it back recovers the f64 exactly.
pub fn push_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// [`push_num`] into a fresh string.
pub fn json_num(x: f64) -> String {
    let mut out = String::new();
    push_num(&mut out, x);
    out
}

/// Parses a JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(JsonValue::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input is a &str,
                    // so boundaries are well-formed).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            // RFC 8259 leaves duplicate-key behaviour implementation-
            // defined; in this workspace a duplicate always means a
            // writer bug, so reject rather than silently keep one.
            if pairs.iter().any(|(existing, _)| *existing == key) {
                return Err(format!("duplicate key {key:?} at byte {}", self.pos));
            }
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_escapes_and_nesting() {
        let doc =
            parse_json(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\"y\\z\n"},"d":null,"e":true}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_str(), Some("x\"y\\z\n"));
        assert_eq!(
            doc.get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Num(-300.0)
            ]))
        );
        assert_eq!(doc.get("d"), Some(&JsonValue::Null));
        assert_eq!(doc.get("e"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} garbage").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn parser_rejects_nan_and_bare_tokens() {
        // JSON has no NaN/Infinity literals; a writer that leaks one
        // (e.g. formatting an uninitialised f64) must not validate.
        assert!(parse_json("{\"x\": NaN}").is_err());
        assert!(parse_json("{\"x\": -Infinity}").is_err());
        assert!(parse_json("{\"x\": nan}").is_err());
        assert!(parse_json("NaN").is_err());
    }

    #[test]
    fn parser_rejects_duplicate_keys() {
        assert!(parse_json("{\"a\":1,\"a\":2}").is_err());
        // Nested objects are checked too, and the error names the key.
        let err = parse_json("{\"outer\":{\"k\":1,\"k\":1}}").unwrap_err();
        assert!(err.contains("duplicate key \"k\""), "unexpected error: {err}");
        // Same key at different depths is fine.
        assert!(parse_json("{\"a\":{\"a\":1},\"b\":{\"a\":2}}").is_ok());
    }

    #[test]
    fn escaper_neutralises_quotes_and_control_bytes() {
        let hostile = "a\"b\\c\u{01}d\ne";
        let escaped = json_str(hostile);
        assert_eq!(escaped, "\"a\\\"b\\\\c\\u0001d\\ne\"");
        // The escaped form embeds into a document that parses back to
        // the original string — nothing leaks through as structure.
        let doc = parse_json(&format!("{{\"msg\":{escaped}}}")).unwrap();
        assert_eq!(doc.get("msg").unwrap().as_str(), Some(hostile));
    }

    #[test]
    fn json_num_round_trips_and_rejects_non_finite() {
        for x in [0.25e-3, 1.0 / 3.0, f64::MIN_POSITIVE, 12_345.678_9] {
            let parsed: f64 = json_num(x).parse().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{x} must round-trip exactly");
        }
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn push_num_appends_the_display_rendering_or_null() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            1e-7,
            1e21,
            -1e21,
            f64::MAX,
            f64::MIN,
        ];
        // SplitMix64 over raw bit patterns: every exponent and sign.
        let mut state = 0x2005_u64;
        edges.extend((0..10_000).map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            f64::from_bits(z ^ (z >> 31))
        }));
        for x in edges {
            let mut out = String::from("[");
            push_num(&mut out, x);
            let expected = if x.is_finite() { format!("[{x}") } else { "[null".to_string() };
            assert_eq!(out, expected, "bits {:#018x}", x.to_bits());
        }
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut out = String::from("[");
            push_num(&mut out, x);
            assert_eq!(out, "[null");
        }
    }

    #[test]
    fn integer_accessor_is_strict() {
        assert_eq!(JsonValue::Num(8.0).as_u64(), Some(8));
        assert_eq!(JsonValue::Num(8.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Str("8".into()).as_u64(), None);
    }
}
