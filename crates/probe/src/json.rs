//! A minimal, deterministic JSON codec.
//!
//! The writer is byte-stable: objects keep their fields in insertion
//! order, integers render exactly, and floats use Rust's shortest
//! round-trip formatting (never exponent notation), so the same value
//! always serializes to the same bytes on every platform and thread
//! count. The parser accepts standard JSON (it is more liberal than
//! the writer: exponents, escapes and surrogate pairs all parse) and
//! reports errors with byte offsets.

use std::fmt::Write as _;

/// Deepest array/object nesting the parser accepts. Reports and cache
/// files nest under 10 levels; the cap turns a hostile document into a
/// [`JsonError`] instead of a stack overflow in the recursive parser.
const MAX_DEPTH: usize = 256;

/// A JSON value.
///
/// Numbers are split into three variants so integers survive a
/// round trip exactly: the writer renders `Uint`/`Int` with no
/// fractional part and the parser maps integral literals back to
/// them (unsigned first).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    Uint(u64),
    /// A negative integer.
    Int(i64),
    /// Any other finite number. Non-finite floats render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; fields keep insertion order (the writer never
    /// reorders, which is what makes reports byte-stable).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Look up a field of an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(n) => Some(n),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(n) => Some(n as f64),
            Json::Int(n) => Some(n as f64),
            Json::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render as pretty-printed JSON (two-space indent, trailing
    /// newline), the format every `--json` report uses.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_value(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // Rust's shortest round-trip formatting; always
                    // keep a fractional part so the value re-parses
                    // as a float.
                    let s = format!("{x}");
                    out.push_str(&s);
                    if !s.contains('.') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_value(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_value(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (one value plus optional whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
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

/// A JSON parse error with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(self.error(&format!(
                "arrays and objects nest deeper than {MAX_DEPTH} levels"
            ))),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
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
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            let c = match cp {
                                0xD800..=0xDBFF => {
                                    // Surrogate pair: expect \uXXXX low half.
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let low = self.hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (low.wrapping_sub(0xDC00) & 0x3FF);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                }
                                cp => char::from_u32(cp),
                            };
                            match c {
                                Some(c) => s.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[start..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number spans ASCII bytes");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::object(vec![
            ("name", Json::Str("dither".into())),
            ("iterations", Json::Uint(60)),
            ("offset", Json::Int(-3)),
            ("ii", Json::Float(3.25)),
            ("flags", Json::Array(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::object(vec![("empty", Json::Array(vec![]))])),
        ])
    }

    #[test]
    fn render_is_deterministic_and_ordered() {
        let a = sample().render();
        let b = sample().render();
        assert_eq!(a, b);
        let name = a.find("\"name\"").unwrap();
        let iters = a.find("\"iterations\"").unwrap();
        assert!(name < iters, "insertion order preserved");
    }

    #[test]
    fn round_trip_is_identity_on_rendered_text() {
        let text = sample().render();
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text);
        assert_eq!(reparsed, sample());
    }

    #[test]
    fn integral_floats_stay_floats() {
        let text = Json::Float(42.0).render();
        assert_eq!(text, "42.0\n");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(42.0));
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v = Json::parse("  {\"a\": [1, 2.5e2, -7], \"s\": \"x\\u0041\\n\", \"b\": false} ")
            .unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("xA\n"));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Json::Float(250.0)
        );
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2], Json::Int(-7));
    }

    #[test]
    fn parser_reports_offsets() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
    }

    #[test]
    fn nesting_is_capped_with_an_offset() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&over).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nest deeper"), "{err}");
        // Far past the cap fails the same way instead of overflowing
        // the stack; objects count as levels too.
        let err = Json::parse(&"{\"a\": [".repeat(100_000)).unwrap_err();
        assert_eq!(err.offset, 7 * (MAX_DEPTH / 2));
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let v = Json::Str("quote \" slash \\ tab \t ctrl \u{1} unicode é".into());
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
    }
}
