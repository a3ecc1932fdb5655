//! A minimal first-party JSON value, writer, and parser.
//!
//! The build environment has no registry access, so run reports are written
//! and validated with this ~200-line implementation instead of `serde_json`.
//! Objects preserve insertion order (exports insert in sorted order, so the
//! serialized text is deterministic), numbers are `f64` or `u64`, and
//! non-finite floats serialize as `null` (JSON has no NaN/∞).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned integer, kept apart from `Num` so counters round-trip
    /// exactly even above 2^53.
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Json::UInt(_) | Json::Num(_))
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so the limit turns hostile input (a line of
/// `[`) into a [`ParseError`] instead of a stack overflow. The committed
/// quickstart report nests 8 levels.
pub const MAX_DEPTH: usize = 128;

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes: the cursor moves over ASCII structure byte by byte
    /// and over a string's other characters one whole character at a time,
    /// so it always sits on a character boundary.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// An array or object one level deeper, refused past [`MAX_DEPTH`].
    fn nested(&mut self) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = if self.bytes[self.pos] == b'{' {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}', "expected ',' or '}'")?;
            return Ok(Json::Obj(members));
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']', "expected ',' or ']'")?;
            return Ok(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate halves map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("round[0]".into())),
            ("n".into(), Json::UInt(42)),
            ("loss".into(), Json::Num(0.125)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            (
                "child".into(),
                Json::Obj(vec![("esc\"ape\n".into(), Json::Str("a\\b".into()))]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).expect("parses"), doc);
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_limited() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
    }

    #[test]
    fn parses_numbers_and_escapes() {
        assert_eq!(
            Json::parse("18446744073709551615"),
            Ok(Json::UInt(u64::MAX))
        );
        assert_eq!(Json::parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(Json::parse("\"a\\u0041\\n\""), Ok(Json::Str("aA\n".into())));
    }

    #[test]
    fn roundtrips_multibyte_utf8_in_keys_and_values() {
        let text = "café ∂ 🙂";
        let doc = Json::Obj(vec![
            (text.into(), Json::Str(text.into())),
            ("ü".into(), Json::Arr(vec![Json::Str("∂🙂\"é".into())])),
        ]);
        let encoded = doc.to_string();
        assert!(encoded.contains(text), "{encoded}");
        assert_eq!(Json::parse(&encoded).expect("parses"), doc);
        assert_eq!(
            Json::parse(r#"{"café ∂ 🙂":"café ∂ 🙂"}"#),
            Ok(Json::Obj(vec![(text.into(), Json::Str(text.into()))]))
        );
    }
}
