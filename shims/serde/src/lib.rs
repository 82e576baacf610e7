//! Offline stand-in for the `serde` crate.
//!
//! The real serde is unavailable in this build environment (no registry
//! access), so this shim provides the small surface the workspace uses:
//! `Serialize` / `Deserialize` traits with `#[derive(...)]` support.
//!
//! Serialization streams: [`Serialize::serialize`] walks a value and
//! feeds it, as a sequence of scalar and container events, into a
//! [`Serializer`] — in practice one of the sibling `serde_json` shim's
//! writers, which append JSON text straight into their output. No
//! intermediate tree is built. Deserialization goes the other way through
//! a parsed [`Value`] tree, which `serde_json` produces from JSON text.
//!
//! The derive macros (from the `serde_derive` shim) support the shapes the
//! workspace actually uses: structs with named fields, tuple structs, and
//! enums with unit or tuple variants. Field attributes (`#[serde(...)]`)
//! are not supported.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// A parsed, self-describing value: what [`Deserialize`] reads.
///
/// Maps are ordered key/value pair lists. A JSON object parses into a
/// map with string keys; maps whose keys are not all strings are written
/// as arrays of `[key, value]` pairs and parse back as sequences, which
/// the map deserializers accept too.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`; deserializes `Option::None`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer written with a minus sign.
    Int(i64),
    /// An integer written without one.
    UInt(u64),
    /// A binary floating point number.
    Float(f64),
    /// A string.
    Str(String),
    /// A sequence of values.
    Seq(Vec<Value>),
    /// An ordered list of key/value entries.
    Map(Vec<(Value, Value)>),
}

impl Value {
    /// The entries of a map value, if this is a map.
    pub fn as_map(&self) -> Option<&[(Value, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of a sequence value, if this is a sequence.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A one-word description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::UInt(_) => "uint",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Deserialization error: a human-readable description of the mismatch.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error with the given message.
    pub fn custom(msg: impl Into<String>) -> DeError {
        DeError(msg.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// A type that can write itself into a [`Serializer`].
pub trait Serialize {
    /// Feeds `self` into `out` as a stream of events: one scalar, or one
    /// container whose contents are themselves serialized in order.
    fn serialize<S: Serializer>(&self, out: &mut S);
}

/// The receiving end of [`Serialize::serialize`]: an output format.
///
/// A value arrives as one scalar call, or as a container:
///
/// * a sequence is `begin_seq`, then `element` followed by the element's
///   own events for each element, then `end_seq`;
/// * a map is `begin_map`, then for each entry `key`, the key's events,
///   `value`, the value's events, and finally `end_map`.
///
/// Implementations keep whatever state their format needs between events
/// (nesting depth, whether a separator is due). The provided methods
/// build the common containers out of these events.
pub trait Serializer {
    /// `Option::None` and unit structs.
    fn null(&mut self);
    /// A boolean.
    fn bool(&mut self, v: bool);
    /// A signed integer.
    fn i64(&mut self, v: i64);
    /// An unsigned integer.
    fn u64(&mut self, v: u64);
    /// A floating point number (`f32` arrives widened).
    fn f64(&mut self, v: f64);
    /// A string; also unit enum variants, by name.
    fn str(&mut self, v: &str);
    /// Opens a sequence.
    fn begin_seq(&mut self);
    /// Announces the next element of the innermost open sequence.
    fn element(&mut self);
    /// Closes the innermost open sequence.
    fn end_seq(&mut self);
    /// Opens a map. `string_keys` is true when every key of the map
    /// serializes as a string ([`Serializer::str`]), which the caller
    /// works out before the first entry.
    fn begin_map(&mut self, string_keys: bool);
    /// Announces the next entry's key of the innermost open map.
    fn key(&mut self);
    /// Separates the current entry's key from its value.
    fn value(&mut self);
    /// Closes the innermost open map.
    fn end_map(&mut self);

    /// Writes the items in order as a sequence.
    fn seq<I>(&mut self, items: I)
    where
        Self: Sized,
        I: IntoIterator,
        I::Item: Serialize,
    {
        self.begin_seq();
        for item in items {
            self.element();
            item.serialize(self);
        }
        self.end_seq();
    }

    /// Writes the entries in order as a map. The entries are walked twice:
    /// once to learn whether every key is a string, once to write them.
    fn map<'a, K, V, I>(&mut self, entries: I)
    where
        Self: Sized,
        K: Serialize + 'a,
        V: Serialize + 'a,
        I: IntoIterator<Item = (&'a K, &'a V)>,
        I::IntoIter: Clone,
    {
        let entries = entries.into_iter();
        self.begin_map(entries.clone().all(|(k, _)| is_string(k)));
        for (k, v) in entries {
            self.key();
            k.serialize(self);
            self.value();
            v.serialize(self);
        }
        self.end_map();
    }

    /// Writes one string-keyed map entry: a struct field, or the
    /// variant name and payload of a data-carrying enum variant.
    fn field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T)
    where
        Self: Sized,
    {
        self.key();
        self.str(name);
        self.value();
        value.serialize(self);
    }
}

/// Whether `key` serializes as a string: its first event is
/// [`Serializer::str`].
fn is_string<T: Serialize + ?Sized>(key: &T) -> bool {
    let mut probe = FirstEvent(None);
    key.serialize(&mut probe);
    probe.0 == Some(true)
}

/// A serializer that only records whether the first event it receives
/// is a string.
struct FirstEvent(Option<bool>);

impl FirstEvent {
    fn saw(&mut self, string: bool) {
        self.0.get_or_insert(string);
    }
}

impl Serializer for FirstEvent {
    fn null(&mut self) {
        self.saw(false);
    }
    fn bool(&mut self, _: bool) {
        self.saw(false);
    }
    fn i64(&mut self, _: i64) {
        self.saw(false);
    }
    fn u64(&mut self, _: u64) {
        self.saw(false);
    }
    fn f64(&mut self, _: f64) {
        self.saw(false);
    }
    fn str(&mut self, _: &str) {
        self.saw(true);
    }
    fn begin_seq(&mut self) {
        self.saw(false);
    }
    fn element(&mut self) {}
    fn end_seq(&mut self) {}
    fn begin_map(&mut self, _: bool) {
        self.saw(false);
    }
    fn key(&mut self) {}
    fn value(&mut self) {}
    fn end_map(&mut self) {}
}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes an instance from a parsed value tree.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

/// Looks up a struct field in a serialized map and deserializes it.
/// Used by the derive macro.
pub fn field<T: Deserialize>(entries: &[(Value, Value)], name: &str) -> Result<T, DeError> {
    for (k, v) in entries {
        if k.as_str() == Some(name) {
            return T::from_value(v);
        }
    }
    Err(DeError::custom(format!("missing field `{name}`")))
}

fn unexpected<T>(expected: &str, got: &Value) -> Result<T, DeError> {
    Err(DeError::custom(format!(
        "expected {expected}, got {}",
        got.kind()
    )))
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => unexpected("bool", other),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: i128 = match value {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    other => return unexpected("integer", other),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let wide: i128 = match value {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    other => return unexpected("integer", other),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => unexpected("number", other),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for char {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => unexpected("single-char string", other),
        }
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => unexpected("string", other),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for std::rc::Rc<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for std::rc::Rc<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        T::from_value(value).map(std::rc::Rc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        match self {
            None => out.null(),
            Some(v) => v.serialize(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("sequence", other),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.begin_seq();
                $(
                    out.element();
                    self.$n.serialize(out);
                )+
                out.end_seq();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                match value {
                    Value::Seq(items) if items.len() == LEN => {
                        Ok(($($t::from_value(&items[$n])?,)+))
                    }
                    other => unexpected("tuple sequence", other),
                }
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

fn map_entries(value: &Value) -> Result<Vec<(&Value, &Value)>, DeError> {
    match value {
        Value::Map(entries) => Ok(entries.iter().map(|(k, v)| (k, v)).collect()),
        // JSON renders maps with non-string keys as arrays of [key, value]
        // pairs; accept that representation symmetrically.
        Value::Seq(items) => items
            .iter()
            .map(|item| match item {
                Value::Seq(pair) if pair.len() == 2 => Ok((&pair[0], &pair[1])),
                other => unexpected("[key, value] pair", other),
            })
            .collect(),
        other => unexpected("map", other),
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.map(self);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        map_entries(value)?
            .into_iter()
            .map(|(k, v)| Ok((K::from_value(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.map(self);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        map_entries(value)?
            .into_iter()
            .map(|(k, v)| Ok((K::from_value(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("sequence", other),
        }
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => unexpected("sequence", other),
        }
    }
}
