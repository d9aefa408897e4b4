//! A minimal JSON reader/writer: the JSON query-IR surface parses with
//! it, and the plan renderer writes its strings through [`write_str`].
//!
//! The workspace builds offline with no registry access, so — like the
//! rest of the stack — the crate carries its own small parser instead
//! of depending on serde. It reads RFC 8259 JSON: objects, arrays,
//! strings (with the standard escapes, `\u` taking exactly four hex
//! digits), numbers in the RFC's grammar (no `+` sign, no leading zeros,
//! digits on both sides of a decimal point), booleans, and null. Numbers
//! are kept as `f64`; the consuming layers re-validate integer fields.

use std::fmt;

/// A parsed JSON value. Object members keep their source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` for other kinds or a missing key).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number ≥ 0.
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members of an object, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// A short name for the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A JSON syntax error with its 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest: `value` recurses once per level,
/// and the text may be a command-line argument.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open arrays and objects around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError {
            line,
            col,
            message: message.into(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                b as char,
                match self.peek() {
                    Some(c) => format!("`{}`", c as char),
                    None => "end of input".to_owned(),
                }
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Parser::object),
            Some(b'[') => self.nested(Parser::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// One array or object, unless its opening bracket (the current
    /// byte) stands one level too deep.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("JSON nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the query-IR;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(self.err(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences verbatim).
                    let ch = self
                        .text
                        .get(self.pos..)
                        .and_then(|tail| tail.chars().next())
                        .ok_or_else(|| self.err("empty string tail"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Steps over the next byte if it is one of `any_of`.
    fn skip(&mut self, any_of: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|b| any_of.contains(&b));
        self.pos += usize::from(hit);
        hit
    }

    /// One or more ASCII digits; `what` says where they were expected.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let start = self.pos;
        while self.skip(b"0123456789") {}
        if self.pos == start {
            return Err(self.err(format!("expected a digit {what}")));
        }
        Ok(())
    }

    /// A number in RFC 8259's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.skip(b"-");
        let int = self.pos;
        self.digits("in a number")?;
        if self.bytes[int] == b'0' && self.pos > int + 1 {
            self.pos = int + 1;
            return Err(self.err("a number must not have a leading zero"));
        }
        if self.skip(b".") {
            self.digits("after the decimal point")?;
        }
        if self.skip(b"eE") {
            self.skip(b"+-");
            self.digits("in the exponent")?;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
        assert_eq!(
            parse(r#"[1, "a", []]"#).unwrap(),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("a".into()),
                Json::Arr(vec![])
            ])
        );
        let obj = parse(r#"{"a": 1, "b": {"c": null}}"#).unwrap();
        assert_eq!(obj.get("a"), Some(&Json::Num(1.0)));
        assert_eq!(obj.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(obj.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{00e9}\u{0001}";
        let mut enc = String::new();
        write_str(&mut enc, original);
        assert_eq!(parse(&enc).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn unicode_escape() {
        assert_eq!(parse(r#""é""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn errors_carry_position() {
        let err = parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("null"), "{err}");
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] junk").is_err());
        assert!(
            parse(r#"{"a":1,"a":2}"#).is_err(),
            "duplicate keys rejected"
        );
        assert!(parse(r#""unterminated"#).is_err());
        // RFC 8259 numbers and four-hex-digit escapes only: each error
        // sits at the byte that breaks the grammar.
        for (text, col, message) in [
            ("01", 2, "a number must not have a leading zero"),
            ("-01", 3, "a number must not have a leading zero"),
            ("+1", 1, "unexpected character `+`"),
            ("-", 2, "expected a digit in a number"),
            ("1.", 3, "expected a digit after the decimal point"),
            ("1.e5", 3, "expected a digit after the decimal point"),
            (".5", 1, "unexpected character `.`"),
            ("1e", 3, "expected a digit in the exponent"),
            ("1e+", 4, "expected a digit in the exponent"),
            (r#""\u+063d""#, 4, "invalid \\u escape"),
            (r#""\u06 3""#, 4, "invalid \\u escape"),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(
                (err.line, err.col, err.message.as_str()),
                (1, col, message),
                "{text}"
            );
        }
        for (text, value) in [("0", 0.0), ("-0.5", -0.5), ("10e-1", 1.0), ("2E+2", 200.0)] {
            assert_eq!(parse(text).unwrap(), Json::Num(value), "{text}");
        }
        assert_eq!(parse(r#""\u00E9""#).unwrap(), Json::Str("é".into()));
    }

    #[test]
    fn as_uint_rejects_fractions_and_negatives() {
        assert_eq!(parse("7").unwrap().as_uint(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_uint(), None);
        assert_eq!(parse("-7").unwrap().as_uint(), None);
    }

    #[test]
    fn nesting_is_bounded_at_the_bracket_that_goes_too_deep() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!((err.line, err.col), (1, MAX_DEPTH + 1));
        assert_eq!(err.message, "JSON nests deeper than 256 levels");
        // Objects count like arrays, siblings do not, and what used to
        // abort the process — 60 KB of open brackets — is an error.
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        assert!(parse(&format!("[{}[]]", "[[]],".repeat(1000))).is_ok());
        assert!(parse(&r#"{"v":1,"query":["#.repeat(4_000)).is_err());
    }
}
