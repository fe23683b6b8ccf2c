//! A minimal JSON *parser* for the job-spool protocol, targeting the
//! same deterministic [`Json`](phaselab_obs::Json) value type
//! `phaselab-obs` renders.
//!
//! The spool directory holds job specs and completion records written
//! by [`Json::render_pretty`](phaselab_obs::Json::render_pretty); this
//! module reads them back. It is a strict RFC 8259 subset-parser over
//! the documents this workspace produces: objects, arrays, strings with
//! escapes, integers, floats, booleans, and `null`. Anything malformed returns a positioned error
//! — the queue treats an unparsable record like the checkpoint store
//! treats a torn frame: warn, quarantine, recompute, never crash.

use phaselab_obs::Json;
use std::fmt;

/// A parse failure: what was wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// One-line description of the problem.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is not.
///
/// Integers in `u64` range parse as [`Json::U64`]; every other number
/// (negative, fractional, exponent) parses as [`Json::F64`].
///
/// # Errors
///
/// A [`ParseError`] naming the first offending byte.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after the document"));
    }
    Ok(value)
}

/// Looks up a key in a [`Json::Obj`]; `None` for absent keys or
/// non-object values.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The string payload of a [`Json::Str`], if that is what this is.
pub fn as_str(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// The integer payload of a [`Json::U64`], if that is what this is.
pub fn as_u64(value: &Json) -> Option<u64> {
    match value {
        Json::U64(n) => Some(*n),
        _ => None,
    }
}

/// The boolean payload of a [`Json::Bool`], if that is what this is.
pub fn as_bool(value: &Json) -> Option<bool> {
    match value {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// The items of a [`Json::Arr`], if that is what this is.
pub fn as_arr(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// Nesting depth bound: spool documents are a few levels deep, and a
/// bound turns corrupt input into an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{', "expected `{`")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following \uXXXX
                                // low surrogate completes the scalar.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u', "expected low surrogate escape")?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let scalar = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(scalar)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Re-borrow the full UTF-8 scalar starting here.
                    self.pos -= 1;
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let Some(hex) = self.bytes.get(self.pos..end) else {
            return Err(self.err("truncated unicode escape"));
        };
        let s = std::str::from_utf8(hex).map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::F64(v)),
            _ => Err(self.err("malformed number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_rendered_documents() {
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::U64(1)),
            ("name".to_string(), Json::Str("tab\\le \"3\"\n".to_string())),
            ("ratio".to_string(), Json::F64(0.125)),
            ("flag".to_string(), Json::Bool(true)),
            ("nothing".to_string(), Json::Null),
            (
                "items".to_string(),
                Json::Arr(vec![Json::U64(1), Json::U64(2), Json::U64(u64::MAX)]),
            ),
            ("empty_obj".to_string(), Json::Obj(vec![])),
            ("empty_arr".to_string(), Json::Arr(vec![])),
        ]);
        let rendered = doc.render_pretty();
        let parsed = parse(&rendered).expect("roundtrip parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse(r#"{"a": {"b": [1, "two", false]}, "n": 7}"#).expect("parses");
        let a = get(&doc, "a").expect("a");
        let items = as_arr(get(a, "b").expect("b")).expect("array");
        assert_eq!(as_u64(&items[0]), Some(1));
        assert_eq!(as_str(&items[1]), Some("two"));
        assert_eq!(as_bool(&items[2]), Some(false));
        assert_eq!(as_u64(get(&doc, "n").expect("n")), Some(7));
        assert!(get(&doc, "missing").is_none());
    }

    #[test]
    fn numbers_pick_the_right_variant() {
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-3").unwrap(), Json::F64(-3.0));
        assert_eq!(parse("2.5").unwrap(), Json::F64(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""Aé 😀 \t""#).unwrap(),
            Json::Str("Aé 😀 \t".to_string())
        );
    }

    #[test]
    fn malformed_documents_error_with_an_offset() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "truely",
            "01x",
            "nul",
            "\"\u{1}\"",
            r#"{"a": 1} trailing"#,
            "1e309",
            r#""\ud800""#,
            r#""\q""#,
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
        let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&deep).is_err(), "over-deep nesting must error");
    }
}
