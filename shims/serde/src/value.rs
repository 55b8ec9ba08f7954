//! A parsed JSON tree and a small recursive-descent parser.

use crate::{write_json_string, DeError};
use std::fmt;

/// A JSON document.
///
/// Numbers keep integer/float distinction so `u64` values round-trip
/// exactly (`f64` would lose precision above 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal (no `.`/exponent in the source).
    Int(i128),
    /// A float literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Writes this value as JSON, indenting nested containers when
    /// `indent` is `Some(step)`.
    pub fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Value::Str(s) => write_json_string(s, out),
            Value::Array(items) => {
                write_seq(out, indent, level, '[', ']', items.iter(), |v, out, lvl| {
                    v.write(out, indent, lvl)
                });
            }
            Value::Object(pairs) => {
                write_seq(out, indent, level, '{', '}', pairs.iter(), |(k, v), out, lvl| {
                    write_json_string(k, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, lvl)
                });
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(T, &mut String, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (level + 1)));
        }
        write_item(item, out, level + 1);
    }
    if n > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * level));
        }
    }
    out.push(close);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        f.write_str(&s)
    }
}

/// Parses a JSON document. Trailing whitespace is allowed; trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Value, DeError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(DeError(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
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

    fn eat(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError(format!("expected `{}` at byte {}", b as char, self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(DeError(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, DeError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(DeError(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Advances past a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let n = self.bytes[self.pos..].iter().take_while(|b| b.is_ascii_digit()).count();
        self.pos += n;
        n
    }

    /// A number in JSON's grammar: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// A leading zero ends the integer part, so `01` is `0` followed by
    /// trailing characters.
    fn number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        let invalid = |p: &Parser<'_>| DeError(format!("invalid number at byte {}", p.pos));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid(self)),
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        let text = &self.src[start..self.pos];
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| DeError(format!("invalid number `{text}`")))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|_| DeError(format!("invalid integer `{text}`")))
        }
    }

    /// The four hex digits of a `\u` escape whose `u` is at `self.pos`,
    /// leaving `self.pos` on the last digit. Exactly four hex digits: no
    /// sign, no fewer.
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| DeError("truncated \\u escape".into()))?;
        let mut code = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| DeError(format!("invalid \\u escape at byte {}", self.pos)))?;
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// The character of a `\u` escape whose `u` is at `self.pos`: a BMP
    /// scalar, or a UTF-16 high surrogate followed by a `\u` low one.
    fn unicode_escape(&mut self) -> Result<char, DeError> {
        let at = self.pos;
        let lone = || DeError(format!("lone surrogate in \\u escape at byte {at}"));
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(&b"\\u"[..]) {
                    return Err(lone());
                }
                self.pos += 2;
                match self.hex4()? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(lone()),
                }
            }
            0xDC00..=0xDFFF => return Err(lone()),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| DeError("invalid \\u codepoint".into()))
    }

    fn string(&mut self) -> Result<String, DeError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            // Copy the run of plain text up to the next quote, escape or
            // control character in one piece. All three are ASCII, so the
            // run ends on a character boundary of the (already valid
            // UTF-8) input.
            let run =
                self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            s.push_str(&self.src[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(DeError("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b) if b < 0x20 => {
                    return Err(DeError(format!(
                        "unescaped control character U+{b:04X} in a string at byte {}",
                        self.pos
                    )));
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => s.push(self.unicode_escape()?),
                        other => {
                            return Err(DeError(format!("invalid escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, DeError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(DeError(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, DeError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(DeError(format!("duplicate key `{key}` in an object at byte {at}")));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(DeError(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a");
        assert_eq!(obj[1].1, Value::Str("x".into()));
    }

    #[test]
    fn big_u64_round_trips_exactly() {
        let n = u64::MAX - 1;
        let v = parse(&n.to_string()).unwrap();
        assert_eq!(v, Value::Int(n as i128));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 x").is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04""#, r#""\u004g""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_are_errors() {
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("\u{1f600}".into()));
        assert_eq!(parse(r#""a\uD83D\uDE00b""#).unwrap(), Value::Str("a\u{1f600}b".into()));
        for lone in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ude00""#, r#""\ud83d\u0041""#] {
            let err = parse(lone).unwrap_err();
            assert!(err.0.contains("lone surrogate"), "{lone}: {err}");
        }
    }

    #[test]
    fn a_key_repeated_in_one_object_is_an_error_naming_it() {
        for (doc, key) in [
            (r#"{"a":1,"a":2}"#, "a"),
            (r#"{"a":1,"b":[{"c":1,"d":2,"c":3}]}"#, "c"),
            (r#"{"ab":1,"cd":2,"ab":3}"#, "ab"),
            (r#"{"":1,"":2}"#, ""),
            (r#"{"\u0061":1,"a":2}"#, "a"),
        ] {
            let err = parse(doc).unwrap_err();
            assert!(err.0.contains(&format!("duplicate key `{key}`")), "{doc}: {err}");
        }
        // One key in two objects, and keys of one length, are fine.
        assert!(parse(r#"{"a":{"a":1},"b":[{"a":1},{"a":2}],"c":3}"#).is_ok());
    }

    #[test]
    fn raw_control_characters_in_strings_are_errors() {
        for c in (0u8..0x20).map(char::from) {
            for doc in [format!("\"a{c}b\""), format!("{{\"k{c}\":1}}")] {
                let err = parse(&doc).unwrap_err();
                assert!(err.0.contains("control character"), "{doc:?}: {err}");
            }
            let mut escaped = String::new();
            crate::write_json_string(&format!("a{c}b"), &mut escaped);
            assert_eq!(parse(&escaped).unwrap(), Value::Str(format!("a{c}b")));
        }
        // Whitespace between tokens is not inside a string.
        assert_eq!(parse("[\n1,\t2\r]").unwrap(), Value::Array(vec![Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        assert_eq!(parse("0").unwrap(), Value::Int(0));
        assert_eq!(parse("-0.5e-3").unwrap(), Value::Float(-0.0005));
        assert_eq!(parse("[10,0]").unwrap(), Value::Array(vec![Value::Int(10), Value::Int(0)]));
        for bad in ["01", "-01", "00", "-", "1.", ".5", "1e", "1e+", "1.e5", "+1", "[01]"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
