//! Offline stand-in for `serde_json`: the serde shim's JSON format.
//!
//! Writing streams: [`to_string`] and [`to_string_pretty`] hand a JSON
//! writer to the value's `Serialize::serialize`, and the writer appends
//! text straight into its output string as the events arrive. Maps whose
//! keys are all strings become JSON objects; maps with other keys
//! (tuples, numbers, data-carrying enums, `None`) become arrays of
//! `[key, value]` pairs, which the serde shim's map deserializers accept
//! symmetrically. Reading parses the text into the serde shim's `Value`
//! tree and deserializes from that.

use serde::{DeError, Deserialize, Serialize, Serializer, Value};
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`from_str`] accepts. The parser
/// recurses once per level, so the bound keeps hostile input from
/// exhausting the stack; the deepest type the workspace writes nests far
/// less (the same default as serde_json).
pub const MAX_DEPTH: usize = 128;

/// A JSON serialization or deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(write(value, false))
}

/// Serializes a value to human-readable JSON, indented by two spaces.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    Ok(write(value, true))
}

fn write<T: Serialize>(value: &T, pretty: bool) -> String {
    let mut writer = Writer {
        out: String::new(),
        pretty,
        open: Vec::new(),
    };
    value.serialize(&mut writer);
    debug_assert!(writer.open.is_empty(), "unbalanced serializer events");
    writer.out
}

/// Deserializes a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(T::from_value(&value)?)
}

// --- writer --------------------------------------------------------------

/// The JSON writer behind [`to_string`] (compact) and [`to_string_pretty`]
/// (each array element and object entry on its own line, indented two
/// spaces per level; a `[key, value]` pair entry opens and closes on the
/// lines of the key and value it encloses).
struct Writer {
    out: String,
    pretty: bool,
    /// The containers opened and not yet closed, innermost last.
    open: Vec<Open>,
}

/// One open array or object.
#[derive(Clone, Copy)]
struct Open {
    /// A map written as an array of `[key, value]` pairs.
    pairs: bool,
    /// No element or entry written yet.
    empty: bool,
}

/// Indentation, pushed in slices of this.
const SPACES: &str = "                                                                ";

impl Writer {
    /// Starts the next element or entry of the innermost container: the
    /// separating comma, then in pretty mode a new, indented line.
    fn next_item(&mut self) {
        let open = self.open.last_mut().expect("element outside a container");
        if !open.empty {
            self.out.push(',');
        }
        open.empty = false;
        self.newline();
    }

    /// Closes the innermost container with `bracket`.
    fn close(&mut self, bracket: char) {
        let open = self.open.pop().expect("close without an open container");
        if !open.empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// In pretty mode, a line break indented to the current depth.
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            let mut width = 2 * self.open.len();
            while width > 0 {
                let n = width.min(SPACES.len());
                self.out.push_str(&SPACES[..n]);
                width -= n;
            }
        }
    }

    /// Closes the `[key, value]` pair of the entry just written, if the
    /// innermost map is written as pairs and has one; returns whether it
    /// is written as pairs.
    fn end_pair(&mut self) -> bool {
        let open = *self.open.last().expect("map event outside a map");
        if open.pairs && !open.empty {
            self.out.push(']');
        }
        open.pairs
    }
}

impl Serializer for Writer {
    fn null(&mut self) {
        self.out.push_str("null");
    }

    fn bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.u64(v.unsigned_abs());
    }

    fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
    }

    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // `{:?}` prints the shortest representation that round-trips.
            write!(self.out, "{v:?}").expect("writing to a String cannot fail");
        } else {
            // JSON has no NaN/Infinity; mirror serde_json's `null`.
            self.out.push_str("null");
        }
    }

    fn str(&mut self, v: &str) {
        self.out.push('"');
        // Copy runs of bytes that need no escape in one go. Only ASCII
        // bytes end a run, so every slice falls on character boundaries.
        let mut run = 0;
        for (i, &b) in v.as_bytes().iter().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            self.out.push_str(&v[run..i]);
            run = i + 1;
            match b {
                b'"' => self.out.push_str("\\\""),
                b'\\' => self.out.push_str("\\\\"),
                b'\n' => self.out.push_str("\\n"),
                b'\r' => self.out.push_str("\\r"),
                b'\t' => self.out.push_str("\\t"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.out.push_str("\\u00");
                    self.out.push(char::from(HEX[usize::from(b >> 4)]));
                    self.out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
        }
        self.out.push_str(&v[run..]);
        self.out.push('"');
    }

    fn begin_seq(&mut self) {
        self.out.push('[');
        self.open.push(Open {
            pairs: false,
            empty: true,
        });
    }

    fn element(&mut self) {
        self.next_item();
    }

    fn end_seq(&mut self) {
        self.close(']');
    }

    fn begin_map(&mut self, string_keys: bool) {
        self.out.push(if string_keys { '{' } else { '[' });
        self.open.push(Open {
            pairs: !string_keys,
            empty: true,
        });
    }

    fn key(&mut self) {
        let pairs = self.end_pair();
        self.next_item();
        if pairs {
            self.out.push('[');
        }
    }

    fn value(&mut self) {
        let pairs = self.open.last().is_some_and(|open| open.pairs);
        self.out.push(if pairs { ',' } else { ':' });
        if self.pretty {
            self.out.push(' ');
        }
    }

    fn end_map(&mut self) {
        let pairs = self.end_pair();
        self.close(if pairs { ']' } else { '}' });
    }
}

// --- parser --------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Parser::parse_array),
            Some(b'{') => self.nested(Parser::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses an array or object one level deeper, failing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid keyword at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // reject them rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid \\u code point"))?;
                            out.push(c);
                        }
                        other => {
                            return Err(Error::new(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )));
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((Value::Str(key), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        let s: String = from_str("\"a\\\"b\"").unwrap();
        assert_eq!(s, "a\"b");
        let f: f64 = from_str("0.5").unwrap();
        assert_eq!(f, 0.5);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        let back: Vec<u32> = from_str(&json).unwrap();
        assert_eq!(back, v);

        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1.5f64);
        m.insert("b".to_string(), 2.25);
        let json = to_string_pretty(&m).unwrap();
        let back: BTreeMap<String, f64> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn structured_map_keys_round_trip() {
        let mut m = BTreeMap::new();
        m.insert(("a".to_string(), "b".to_string()), 1u32);
        m.insert(("c".to_string(), "d".to_string()), 2);
        let json = to_string(&m).unwrap();
        let back: BTreeMap<(String, String), u32> = from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn options_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,null]");
        let back: Vec<Option<u32>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    /// Accepts any JSON value, so the parser alone is under test.
    struct Any;

    impl Deserialize for Any {
        fn from_value(_: &Value) -> Result<Any, DeError> {
            Ok(Any)
        }
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(from_str::<Any>(&nested(MAX_DEPTH)).is_ok());
        assert!(from_str::<Any>(&format!("{{\"a\":{}}}", nested(MAX_DEPTH - 1))).is_ok());
        let err = from_str::<Any>(&nested(MAX_DEPTH + 1)).err().unwrap();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        assert!(from_str::<Any>(&format!("{{\"a\":{}}}", nested(MAX_DEPTH))).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str::<Any>(&"[".repeat(1_000_000)).is_err());
        assert!(from_str::<Any>(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("1 trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
