//! The workspace's one JSON module: a [`Value`] tree, a depth-limited
//! [`parse`], and the two primitives every JSON writer renders through —
//! [`write_str`] (quoting and escaping) and [`write_f64`] (shortest
//! round-trip, `null` when non-finite).
//!
//! There is no serde: the build is offline. Writers with a fixed layout
//! (trace events, BENCH reports, the analyzer's Perfetto export) stream
//! their own punctuation and call the primitives for every string and
//! float, so this module alone knows JSON's string and number syntax.
//!
//! [`parse`] is strict RFC 8259 with two limits, both reported as errors
//! with a byte offset: nesting deeper than [`MAX_DEPTH`] (the input is
//! user-supplied, and the parser recurses), and numbers outside the
//! finite `f64` range.
//!
//! ```
//! use predvfs_obs::json::{self, Value};
//!
//! let mut line = String::from("{\"scope\":");
//! json::write_str(&mut line, "cam\"1");
//! line.push_str(",\"t_s\":");
//! json::write_f64(&mut line, 0.25);
//! line.push('}');
//! let v = json::parse(&line).unwrap();
//! assert_eq!(v.get("scope").and_then(Value::as_str), Some("cam\"1"));
//! assert_eq!(v.get("t_s").and_then(Value::as_f64), Some(0.25));
//! assert!(json::parse(&"[".repeat(100_000)).is_err());
//! ```

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. Every document this
/// workspace writes nests at most four deep; the bound only keeps a
/// hostile input from exhausting the stack.
pub const MAX_DEPTH: usize = 128;

/// One JSON value. Numbers are held as the nearest `f64`, which is
/// always finite.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as key/value pairs in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The value under `key` if this is an object holding it (the first
    /// one, should the key repeat).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer that fits a `u64`;
    /// `None` for a negative or fractional one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            // 2^64 is exact in f64; every f64 below it converts exactly.
            Value::Num(v) if v >= 0.0 && v.fract() == 0.0 && v < 18_446_744_073_709_551_616.0 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` are escaped, `\n`,
/// `\r` and `\t` by name and every other control character as `\u00XX`.
/// Everything else, non-ASCII included, is copied as UTF-8.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
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
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `v` in Rust's shortest round-trip notation, which [`parse`]
/// reads back bit for bit, or `null` when `v` is not finite: JSON has no
/// NaN or infinity.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Why [`parse`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where the problem was found.
    pub offset: usize,
    /// What was wrong there.
    pub message: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; only whitespace may follow it.
///
/// # Errors
///
/// Returns the first syntax error, nesting deeper than [`MAX_DEPTH`], or
/// a number outside the finite `f64` range, with its byte offset.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing data"));
    }
    Ok(value)
}

/// A cursor over the input. `pos` only ever stops on an ASCII byte or at
/// the end, so it is always a char boundary.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn error(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// One value, inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => Err(self.error("nesting too deep")),
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.error("expected `:`"));
            }
            fields.push((key, self.value(depth)?));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected `,` or `}`"));
            }
        }
    }

    /// A string, from its opening quote.
    fn string(&mut self) -> Result<String, ParseError> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                // A UTF-16 surrogate pair spells one non-BMP character.
                if (0xD800..0xDC00).contains(&code)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                let c = char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?;
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        if !(self.eat(b'0') || self.digits() > 0) || (self.eat(b'.') && self.digits() == 0) {
            return Err(self.error("invalid number"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Value::Num)
            .ok_or(ParseError {
                offset: start,
                message: "number out of range",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nesting_escapes_and_order() {
        let v =
            parse(r#" {"b": [1, -2.5e3, {"s": "x\ny\u00e9\ud83d\ude00"}], "a": null, "t": true} "#)
                .unwrap();
        let fields = v.as_object().unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "t"], "objects keep document order");
        let items = v.get("b").and_then(Value::as_array).unwrap();
        assert_eq!(items[1].as_f64(), Some(-2500.0));
        assert_eq!(items[2].get("s").and_then(Value::as_str), Some("x\nyé😀"));
        assert_eq!(v.get("a"), Some(&Value::Null));
        assert_eq!(v.get("t").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn rejects_what_rfc_8259_rejects_with_an_offset() {
        for (text, offset) in [
            ("", 0),
            ("{} x", 3),
            ("[1,]", 3),
            ("{\"k\" 1}", 5),
            ("01", 1),
            ("1.", 2),
            ("-", 1),
            ("+1", 0),
            (".5", 0),
            ("1e", 2),
            ("1e999", 0),
            ("\"a\tb\"", 2),
            ("\"\\x\"", 2),
            ("\"\\u12g4\"", 5),
            ("\"\\udc00\"", 7),
            ("\"\\ud800\\u0041\"", 13),
            ("tru", 0),
            ("\"open", 5),
        ] {
            let err = parse(text).expect_err(text);
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
    }

    #[test]
    fn nesting_is_bounded_without_recursing_past_the_bound() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().offset, MAX_DEPTH);
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }

    #[test]
    fn integers_must_be_non_negative_and_whole() {
        let n = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(n("3"), Some(3));
        assert_eq!(n("-0"), Some(0));
        assert_eq!(n("1e3"), Some(1000));
        assert_eq!(n("-1"), None);
        assert_eq!(n("1.7"), None);
        assert_eq!(n("18446744073709551616"), None);
    }
}
