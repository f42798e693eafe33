//! Recursive-descent JSON parser.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use super::{Number, Value};

/// Maximum nesting depth accepted by the parser, guarding against stack
/// exhaustion on adversarial input. The top-level value is at depth 0,
/// so a value nested below `MAX_DEPTH` maps is the deepest accepted.
pub const MAX_DEPTH: usize = 256;

/// A JSON syntax error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    /// Byte offset into the input where the error was detected.
    offset: usize,
}

impl ParseError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        ParseError {
            message: message.into(),
            offset,
        }
    }

    pub(crate) fn invalid_utf8() -> Self {
        ParseError::new("input is not valid UTF-8", 0)
    }

    /// Byte offset where the error occurred.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for ParseError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(ParseError::new("trailing characters after value", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(ParseError::new(
                format!("expected {:?}, found {:?}", b as char, got as char),
                self.pos - 1,
            )),
            None => Err(ParseError::new(
                format!("expected {:?}, found end of input", b as char),
                self.pos,
            )),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(ParseError::new("maximum nesting depth exceeded", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_map(depth),
            Some(b'[') => self.parse_list(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(ParseError::new(
                format!("unexpected character {:?}", other as char),
                self.pos,
            )),
            None => Err(ParseError::new("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Value) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.input.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(ParseError::new(format!("expected keyword {kw:?}"), start))
        }
    }

    fn parse_map(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(map));
        }
        loop {
            self.skip_ws();
            let key_offset = self.pos;
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            if map.insert(key, value).is_some() {
                return Err(ParseError::new("duplicate object key", key_offset));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Map(map)),
                _ => {
                    return Err(ParseError::new(
                        "expected ',' or '}' in object",
                        self.pos.saturating_sub(1),
                    ))
                }
            }
        }
    }

    fn parse_list(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::List(items)),
                _ => {
                    return Err(ParseError::new(
                        "expected ',' or ']' in array",
                        self.pos.saturating_sub(1),
                    ))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Up to the next quote, backslash or control character the
            // text moves as one slice; all three are ASCII, so it ends
            // on a character boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            let run = &self.input[start..self.pos];
            match self.bump() {
                None => return Err(ParseError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    out.push_str(run);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    out.push(self.parse_escape()?);
                }
                Some(_) => {
                    return Err(ParseError::new(
                        "unescaped control character in string",
                        self.pos - 1,
                    ))
                }
            }
        }
    }

    /// The character an escape stands for, its backslash consumed.
    fn parse_escape(&mut self) -> Result<char, ParseError> {
        match self.bump() {
            Some(b'"') => Ok('"'),
            Some(b'\\') => Ok('\\'),
            Some(b'/') => Ok('/'),
            Some(b'b') => Ok('\u{0008}'),
            Some(b'f') => Ok('\u{000C}'),
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'u') => {
                let cp = self.parse_hex4()?;
                if (0xD800..=0xDBFF).contains(&cp) {
                    // High surrogate: a low surrogate must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(ParseError::new(
                            "high surrogate not followed by \\u escape",
                            self.pos,
                        ));
                    }
                    let low = self.parse_hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&low) {
                        return Err(ParseError::new("invalid low surrogate", self.pos));
                    }
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined)
                        .ok_or_else(|| ParseError::new("invalid surrogate pair", self.pos))
                } else if (0xDC00..=0xDFFF).contains(&cp) {
                    Err(ParseError::new("unexpected low surrogate", self.pos))
                } else {
                    char::from_u32(cp).ok_or_else(|| ParseError::new("invalid codepoint", self.pos))
                }
            }
            _ => Err(ParseError::new(
                "invalid escape sequence",
                self.pos.saturating_sub(1),
            )),
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, ParseError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| ParseError::new("truncated \\u escape", self.pos))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| ParseError::new("invalid hex digit in \\u escape", self.pos - 1))?;
            cp = cp * 16 + digit;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(ParseError::new("invalid number", start)),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::new(
                    "digit expected after decimal point",
                    self.pos,
                ));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(ParseError::new("digit expected in exponent", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let parsed: f64 = self.input[start..self.pos]
            .parse()
            .map_err(|_| ParseError::new("number out of range", start))?;
        Ok(Value::Number(Number::new(parsed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(input: &str) -> Value {
        parse(input).unwrap_or_else(|e| panic!("parse {input:?}: {e}"))
    }

    fn err(input: &str) -> ParseError {
        parse(input).expect_err(&format!("expected {input:?} to fail"))
    }

    #[test]
    fn literals() {
        assert_eq!(ok("null"), Value::Null);
        assert_eq!(ok("true"), Value::Bool(true));
        assert_eq!(ok("false"), Value::Bool(false));
        assert_eq!(ok("\"hi\""), Value::string("hi"));
    }

    #[test]
    fn numbers() {
        assert_eq!(ok("0").as_number(), Some(0.0));
        assert_eq!(ok("-12.5").as_number(), Some(-12.5));
        assert_eq!(ok("1e3").as_number(), Some(1000.0));
        assert_eq!(ok("2.5E-2").as_number(), Some(0.025));
        err("01");
        err("1.");
        err("-");
        err("1e");
        err("+1");
    }

    #[test]
    fn nested_structures() {
        let v = ok(r#"{"a": [{"b": ["x"]}, "y"], "c": {}}"#);
        let a = v.get("a").unwrap().as_list().unwrap();
        assert_eq!(a[1].as_str(), Some("y"));
        assert_eq!(
            a[0].get("b").unwrap().as_list().unwrap()[0].as_str(),
            Some("x")
        );
        assert!(v.get("c").unwrap().as_map().unwrap().is_empty());
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(
            ok(" {\n\t\"a\" :\r [ \"1\" , \"2\" ] } "),
            ok(r#"{"a":["1","2"]}"#)
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            ok(r#""\"\\\/\b\f\n\r\t""#).as_str(),
            Some("\"\\/\u{8}\u{c}\n\r\t")
        );
        assert_eq!(ok(r#""A""#).as_str(), Some("A"));
        assert_eq!(ok(r#""é""#).as_str(), Some("é"));
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(ok(r#""😀""#).as_str(), Some("😀"));
        err(r#""\ud83d""#); // lone high surrogate
        err(r#""\ude00""#); // lone low surrogate
        err(r#""\ud83dxx""#);
    }

    #[test]
    fn raw_utf8_passthrough() {
        assert_eq!(ok("\"héllo 😀\"").as_str(), Some("héllo 😀"));
    }

    #[test]
    fn control_characters_rejected() {
        err("\"a\nb\"");
    }

    #[test]
    fn structural_errors() {
        err("{");
        err("[");
        err("{\"a\"}");
        err("{\"a\":1,}");
        err("[1,]");
        err("[1 2]");
        err("");
        err("{} {}");
        err("nul");
    }

    #[test]
    fn duplicate_keys_rejected() {
        let e = err(r#"{"a": "1", "a": "2"}"#);
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn deep_nesting_bounded() {
        let mut s = String::new();
        for _ in 0..500 {
            s.push('[');
        }
        for _ in 0..500 {
            s.push(']');
        }
        let e = err(&s);
        assert!(e.to_string().contains("depth"));
    }

    #[test]
    fn error_offset_points_at_problem() {
        let e = err("[true, xalse]");
        assert_eq!(e.offset(), 7);
    }
}
