//! A minimal JSON value, writer and parser.
//!
//! The workspace is deliberately free of external crates, so the
//! observability layer carries its own JSON support: enough to write every
//! report this repo produces deterministically (object keys keep insertion
//! order) and to parse them back for validation in tests and CI.

use std::fmt;

/// A JSON value. Objects preserve insertion order so serialised reports
/// are byte-stable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, serialised without a decimal point.
    Int(i64),
    /// A floating-point number. Non-finite values serialise as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object; replaces the value if the key is
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Json::Obj(pairs) = self else { panic!("Json::set on a non-object") };
        let value = value.into();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some(pair) => pair.1 = value,
            None => pairs.push((key.to_owned(), value)),
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_string()
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        // Counters in this workspace stay far below i64::MAX; saturate
        // rather than wrap if one ever does not.
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(i64::from(v))
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Self {
        Json::Arr(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
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
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A JSON parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset where parsing failed.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest before [`parse`] gives up. Every
/// report this workspace writes nests a handful of levels; the bound keeps
/// hostile input from exhausting the stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document in time linear in its length. Numbers come back
/// as [`Json::Int`] when they are integral and fit, [`Json::Num`]
/// otherwise.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_owned(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses an array or object one nesting level further down.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character: every step so far
                    // advanced by whole characters, so `pos` is a char
                    // boundary of the input.
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
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("bad number"))
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
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
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_is_compact_and_ordered() {
        let j = Json::obj()
            .with("b", 1u64)
            .with("a", "x\"y")
            .with("nested", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(1.5)]));
        assert_eq!(j.to_json(), r#"{"b":1,"a":"x\"y","nested":[null,true,1.5]}"#);
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut j = Json::obj().with("k", 1u64);
        j.set("k", 2u64);
        assert_eq!(j.to_json(), r#"{"k":2}"#);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn round_trip_through_parser() {
        let original = Json::obj()
            .with("name", "table1_4")
            .with("count", 42u64)
            .with("rate", 0.375)
            .with("neg", Json::Int(-7))
            .with("tags", Json::Arr(vec!["a".into(), "b\nc".into()]))
            .with("inner", Json::obj().with("ok", true).with("none", Json::Null));
        let parsed = parse(&original.to_json()).expect("valid JSON");
        assert_eq!(parsed, original);
    }

    #[test]
    fn parser_handles_whitespace_and_escapes() {
        let j = parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u0041\\t\" ] } ").unwrap();
        let arr = j.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0], Json::Int(1));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("A\t".into()));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        let err = parse("nul").unwrap_err();
        assert!(err.to_string().contains("null"));
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let j = parse(r#"{"n":1,"s":"x"}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert!(j.get("missing").is_none());
        assert!(j.get("n").and_then(Json::as_str).is_none());
        assert!(Json::Null.get("n").is_none());
    }
}
