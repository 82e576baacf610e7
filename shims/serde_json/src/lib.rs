//! Offline stand-in for `serde_json`: the serde shim's JSON format.
//!
//! Both directions stream. [`to_string`] and [`to_string_pretty`] hand a
//! JSON writer to the value's `Serialize::serialize`, and the writer
//! appends text straight into its output string as the events arrive.
//! Maps whose keys are all strings become JSON objects; maps with other
//! keys (tuples, numbers, data-carrying enums, `None`) become arrays of
//! `[key, value]` pairs, which the serde shim's map deserializers accept
//! symmetrically. [`from_str`] hands a parser over the text to the type's
//! `Deserialize::deserialize`, which pulls one token after another out of
//! it as its shape asks for them.

use serde::{DeError, Deserialize, Deserializer, Kind, Number, Serialize, Serializer};
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`from_str`] accepts, counted on
/// the containers open at once. Reading recurses once per open container,
/// so the bound keeps hostile input from exhausting the stack; the deepest
/// type the workspace writes nests far less (the same default as
/// serde_json).
pub const MAX_DEPTH: usize = 128;

/// A JSON error. Writing cannot fail, so every error comes from reading.
pub type Error = DeError;

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
        text: s,
        pos: 0,
        depth: 0,
        first: false,
        scratch: String::new(),
    };
    let value = T::deserialize(&mut parser)?;
    match parser.next_byte() {
        Some(_) => Err(parser.error("trailing characters")),
        None => Ok(value),
    }
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

/// The JSON reader behind [`from_str`]: a cursor over the text that hands
/// out one event per call, so each token is checked as the value's type
/// asks for it and nothing but that value is built.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects opened and not yet closed.
    depth: usize,
    /// The innermost container was just opened: its first element or
    /// entry takes no comma.
    first: bool,
    /// Where a string with escapes is decoded; reused across strings.
    scratch: String,
}

impl Parser<'_> {
    /// An error at the current position.
    fn error(&self, what: &str) -> DeError {
        DeError::custom(format!("{what} at byte {}", self.pos))
    }

    /// The next byte after whitespace, not consumed.
    fn next_byte(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Fails unless the next value is of kind `want`.
    fn want(&mut self, want: Kind) -> Result<(), DeError> {
        match self.peek()? {
            got if got == want => Ok(()),
            got => Err(self.error(&format!("expected {want:?}, got {got:?}"))),
        }
    }

    fn keyword(&mut self, word: &str) -> Result<(), DeError> {
        if !self.text[self.pos..].starts_with(word) {
            return Err(self.error("invalid keyword"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// Consumes the bracket that opens an array or object one level
    /// deeper, failing past [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), DeError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves to the next element or entry of the innermost container,
    /// which `close` ends: past its comma and `true`, or past `close` and
    /// `false`.
    fn next_item(&mut self, close: u8) -> Result<bool, DeError> {
        let b = self.next_byte();
        if b == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            return Ok(false);
        }
        if self.first {
            self.first = false;
        } else if b == Some(b',') {
            self.pos += 1;
        } else {
            return Err(self.error(&format!("expected `,` or `{}`", char::from(close))));
        }
        Ok(true)
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, DeError> {
        let Some(&escape) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                // Outside the Basic Multilingual Plane, UTF-16 escapes a
                // character as a high surrogate followed by a low one. A
                // surrogate in any other position is not a character.
                if (0xD800..0xDC00).contains(&code)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.error("invalid \\u code point"))?
            }
            other => return Err(self.error(&format!("invalid escape `\\{}`", char::from(other)))),
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self.text.get(self.pos..self.pos + 4);
        let code = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
        let code = code.ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

impl Deserializer for Parser<'_> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        Ok(match self.next_byte() {
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Seq,
            Some(b'{') => Kind::Map,
            Some(b'-' | b'0'..=b'9') => Kind::Number,
            other => {
                let other = other.map(char::from);
                return Err(self.error(&format!("unexpected {other:?}")));
            }
        })
    }

    fn null(&mut self) -> Result<(), DeError> {
        self.want(Kind::Null)?;
        self.keyword("null")
    }

    fn bool(&mut self) -> Result<bool, DeError> {
        self.want(Kind::Bool)?;
        let v = self.text.as_bytes()[self.pos] == b't';
        self.keyword(if v { "true" } else { "false" })?;
        Ok(v)
    }

    fn number(&mut self) -> Result<Number, DeError> {
        self.want(Kind::Number)?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let number = if is_float {
            text.parse().ok().map(Number::Float)
        } else if text.starts_with('-') {
            text.parse().ok().map(Number::Int)
        } else {
            text.parse().ok().map(Number::UInt)
        };
        number.ok_or_else(|| self.error(&format!("invalid number `{text}`")))
    }

    fn str(&mut self) -> Result<&str, DeError> {
        self.want(Kind::Str)?;
        let text = self.text;
        self.pos += 1;
        let start = self.pos;
        // Copy into the scratch buffer only once an escape turns up; the
        // text of a string without one is handed out as it stands.
        let mut copied = start;
        self.scratch.clear();
        loop {
            match text.as_bytes().get(self.pos) {
                Some(b'"') => break,
                Some(b'\\') => {
                    self.scratch.push_str(&text[copied..self.pos]);
                    self.pos += 1;
                    let c = self.escape()?;
                    self.scratch.push(c);
                    copied = self.pos;
                }
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string")),
            }
        }
        let rest = &text[copied..self.pos];
        self.pos += 1;
        if copied == start {
            return Ok(rest);
        }
        self.scratch.push_str(rest);
        Ok(&self.scratch)
    }

    fn begin_seq(&mut self) -> Result<(), DeError> {
        self.want(Kind::Seq)?;
        self.open()
    }

    fn element(&mut self) -> Result<bool, DeError> {
        self.next_item(b']')
    }

    fn begin_map(&mut self) -> Result<(), DeError> {
        self.want(Kind::Map)?;
        self.open()
    }

    fn key(&mut self) -> Result<bool, DeError> {
        let more = self.next_item(b'}')?;
        if more && self.next_byte() != Some(b'"') {
            return Err(self.error("expected a string key"));
        }
        Ok(more)
    }

    fn value(&mut self) -> Result<(), DeError> {
        if self.next_byte() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(())
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
        fn deserialize<D: Deserializer>(d: &mut D) -> Result<Any, DeError> {
            d.skip().map(|()| Any)
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

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Point {
        x: u8,
        y: Option<i32>,
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    enum Shape {
        Empty,
        Dot(Point),
        Line(Point, Point),
    }

    #[test]
    fn struct_fields_arrive_in_any_order() {
        let p = Point { x: 1, y: Some(-2) };
        assert_eq!(from_str::<Point>(r#"{"x":1,"y":-2}"#).unwrap(), p);
        assert_eq!(from_str::<Point>(r#" { "y" : -2 , "x" : 1 } "#).unwrap(), p);
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let json = r#"{"w":{"a":[1,-2.5e3,"\u00e9",null,true,[[]]]},"x":1,"z":"","y":null}"#;
        assert_eq!(from_str::<Point>(json).unwrap(), Point { x: 1, y: None });
        // Skipped text is still checked: it must be well-formed JSON.
        assert!(from_str::<Point>(r#"{"w":[1,],"x":1,"y":null}"#).is_err());
        assert!(from_str::<Point>(r#"{"w":99999999999999999999,"x":1,"y":null}"#).is_err());
    }

    #[test]
    fn a_repeated_field_keeps_its_first_value() {
        let json = r#"{"x":1,"y":2,"x":"not a u8","y":null}"#;
        assert_eq!(from_str::<Point>(json).unwrap(), Point { x: 1, y: Some(2) });
    }

    #[test]
    fn enums_read_unit_and_data_variants() {
        assert_eq!(from_str::<Shape>(r#""Empty""#).unwrap(), Shape::Empty);
        let dot = r#"{"Dot":{"x":3,"y":null}}"#;
        assert_eq!(
            from_str::<Shape>(dot).unwrap(),
            Shape::Dot(Point { x: 3, y: None })
        );
        let line = r#"{"Line":[{"x":0,"y":0},{"x":1,"y":1}]}"#;
        assert!(matches!(from_str::<Shape>(line), Ok(Shape::Line(..))));
        // A unit variant is not an object key, a data variant not a string.
        assert!(from_str::<Shape>(r#"{"Empty":null}"#).is_err());
        assert!(from_str::<Shape>(r#""Dot""#).is_err());
        assert!(from_str::<Shape>(r#""Square""#).is_err());
        assert!(from_str::<Shape>("{}").is_err());
    }

    #[test]
    fn rejects_shape_mismatches() {
        let bad = [
            // a missing field, also of an optional type
            r#"{"x":1}"#,
            // a float for an integer
            r#"{"x":1.0,"y":null}"#,
            // an out-of-range integer
            r#"{"x":256,"y":null}"#,
            r#"{"x":-1,"y":null}"#,
            // a struct written as a pairs array
            r#"[["x",1],["y",null]]"#,
            // a non-string key
            r#"{1:1}"#,
            // trailing characters
            r#"{"x":1,"y":null} {}"#,
        ];
        for json in bad {
            assert!(from_str::<Point>(json).is_err(), "{json}");
        }
        // an enum object with two entries
        let two = r#"{"Dot":{"x":3,"y":null},"Empty":null}"#;
        assert!(from_str::<Shape>(two).is_err());
        // a tuple that is too long or too short
        let p = r#"{"x":0,"y":0}"#;
        assert!(from_str::<Shape>(&format!(r#"{{"Line":[{p},{p},{p}]}}"#)).is_err());
        assert!(from_str::<Shape>(&format!(r#"{{"Line":[{p}]}}"#)).is_err());
        assert!(from_str::<(u8, u8)>("[1,2,3]").is_err());
        assert!(from_str::<(u8, u8)>("[1]").is_err());
        assert_eq!(from_str::<(u8, u8)>("[1,2]").unwrap(), (1, 2));
    }

    #[test]
    fn maps_read_objects_and_pairs() {
        let object: BTreeMap<String, u8> = from_str(r#"{"a":1,"b":2}"#).unwrap();
        let pairs: BTreeMap<String, u8> = from_str(r#"[["a",1],["b",2]]"#).unwrap();
        assert_eq!(object, pairs);
        assert!(from_str::<BTreeMap<String, u8>>(r#"[["a",1,2]]"#).is_err());
        assert!(from_str::<BTreeMap<String, u8>>(r#"[["a"]]"#).is_err());
        // Of a repeated key, the last value wins.
        let last: BTreeMap<String, u8> = from_str(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(last["a"], 2);
    }

    #[test]
    fn surrogate_pairs_join_into_one_char() {
        let s: String = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(s, "\u{1F600}");
        let s: String = from_str(r#""a\uD834\uDD1Eb""#).unwrap();
        assert_eq!(s, "a\u{1D11E}b");
    }

    #[test]
    fn lone_or_reversed_surrogates_are_rejected() {
        for json in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(from_str::<String>(json).is_err(), "{json}");
        }
    }
}
