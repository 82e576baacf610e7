//! Offline stand-in for the `serde` crate.
//!
//! The real serde is unavailable in this build environment (no registry
//! access), so this shim provides the small surface the workspace uses:
//! `Serialize` / `Deserialize` traits with `#[derive(...)]` support.
//!
//! Both directions stream. [`Serialize::serialize`] walks a value and
//! feeds it, as a sequence of scalar and container events, into a
//! [`Serializer`]; [`Deserialize::deserialize`] pulls the same events back
//! out of a [`Deserializer`], one at a time as the type asks for them. In
//! practice both ends are the sibling `serde_json` shim's writer and
//! parser, and no intermediate tree is built either way.
//!
//! The derive macros (from the `serde_derive` shim) support the shapes the
//! workspace actually uses: structs with named fields, tuple structs, and
//! enums with unit or tuple variants. Field attributes (`#[serde(...)]`)
//! are not supported.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// An error reading a value: a human-readable description of the input
/// that did not fit.
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

/// A type that can read itself from a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Reads one value of this type from `d`, pulling exactly the events
    /// the type's shape asks for and failing at the first one that does
    /// not fit.
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError>;
}

/// A number as its text was written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer written with a minus sign.
    Int(i64),
    /// An integer written without one.
    UInt(u64),
    /// A number written with a fraction or an exponent.
    Float(f64),
}

/// The kind of value a [`Deserializer`] holds next, told by its first
/// token: `null`, a boolean, a number, a string, a sequence or a map (an
/// object).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    Str,
    Seq,
    Map,
}

/// The sending end of [`Deserialize::deserialize`]: an input format,
/// read one event per call. It mirrors [`Serializer`]:
///
/// * a scalar is one call to `null`, `bool`, `number` or `str`;
/// * a sequence is `begin_seq`, then `element` before each element's own
///   events, until `element` returns `false`, which closes it;
/// * a map with string keys is an object: `begin_map`, then `key`, the
///   key's events, `value` and the value's events for each entry, until
///   `key` returns `false`, which closes it. A map written as an array of
///   `[key, value]` pairs is read as a sequence of two-element sequences.
///
/// A call that finds anything other than what it asks for fails; the
/// caller then gives up on the whole input.
pub trait Deserializer {
    /// The kind of the next value, without consuming it.
    fn peek(&mut self) -> Result<Kind, DeError>;
    /// Reads `null`.
    fn null(&mut self) -> Result<(), DeError>;
    /// Reads a boolean.
    fn bool(&mut self) -> Result<bool, DeError>;
    /// Reads a number.
    fn number(&mut self) -> Result<Number, DeError>;
    /// Reads a string, borrowed until the next call.
    fn str(&mut self) -> Result<&str, DeError>;
    /// Opens a sequence.
    fn begin_seq(&mut self) -> Result<(), DeError>;
    /// Whether the innermost open sequence has another element, whose
    /// events follow; `false` closes the sequence.
    fn element(&mut self) -> Result<bool, DeError>;
    /// Opens an object.
    fn begin_map(&mut self) -> Result<(), DeError>;
    /// Whether the innermost open object has another entry, whose key's
    /// events follow; `false` closes the object.
    fn key(&mut self) -> Result<bool, DeError>;
    /// Separates the current entry's key from its value.
    fn value(&mut self) -> Result<(), DeError>;

    /// Reads the next value, whatever its shape, and discards it.
    fn skip(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Seq => {
                self.begin_seq()?;
                while self.element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Map => {
                self.begin_map()?;
                while self.key()? {
                    self.skip()?;
                    self.value()?;
                    self.skip()?;
                }
                Ok(())
            }
        }
    }
}

// --- the derive's building blocks ----------------------------------------

/// Reads a struct's object: `read` gets each field's index in `names`
/// (`names.len()` for a name not listed) with the field's value next.
pub fn fields<D: Deserializer>(
    d: &mut D,
    names: &[&str],
    mut read: impl FnMut(&mut D, usize) -> Result<(), DeError>,
) -> Result<(), DeError> {
    d.begin_map()?;
    while d.key()? {
        let key = d.str()?;
        let i = names.iter().position(|n| *n == key).unwrap_or(names.len());
        d.value()?;
        read(d, i)?;
    }
    Ok(())
}

/// Reads a field's value into `slot`, or skips it when an earlier entry
/// of the same name filled the slot: the first of repeated fields wins.
pub fn first<T: Deserialize, D: Deserializer>(
    d: &mut D,
    slot: &mut Option<T>,
) -> Result<(), DeError> {
    match slot {
        Some(_) => d.skip(),
        None => {
            *slot = Some(T::deserialize(d)?);
            Ok(())
        }
    }
}

/// The value of field `name`, which the struct must have had.
pub fn required<T>(slot: Option<T>, name: &str) -> Result<T, DeError> {
    slot.ok_or_else(|| DeError::custom(format!("missing field `{name}`")))
}

/// Reads a sequence that must hold exactly the elements `read` takes
/// with [`element`].
pub fn tuple<T, D: Deserializer>(
    d: &mut D,
    read: impl FnOnce(&mut D) -> Result<T, DeError>,
) -> Result<T, DeError> {
    d.begin_seq()?;
    let value = read(d)?;
    if d.element()? {
        return Err(DeError::custom("tuple sequence too long"));
    }
    Ok(value)
}

/// Reads the next element of a [`tuple()`].
pub fn element<T: Deserialize, D: Deserializer>(d: &mut D) -> Result<T, DeError> {
    if d.element()? {
        T::deserialize(d)
    } else {
        Err(DeError::custom("tuple sequence too short"))
    }
}

/// Reads a value of enum `name`: `read` gets the variant's index in
/// `variants`, each listed with whether it carries data. A unit variant
/// is its name. A data variant is an object of one entry from its name to
/// the payload, which `read` finds next.
pub fn variant<T, D: Deserializer>(
    d: &mut D,
    name: &str,
    variants: &[(&str, bool)],
    read: impl FnOnce(&mut D, usize) -> Result<T, DeError>,
) -> Result<T, DeError> {
    let data = match d.peek()? {
        Kind::Str => false,
        Kind::Map if d.begin_map().and_then(|()| d.key())? => true,
        other => {
            return Err(DeError::custom(format!(
                "expected variant of `{name}`, got {other:?}"
            )))
        }
    };
    let got = d.str()?;
    let Some(i) = variants.iter().position(|&v| v == (got, data)) else {
        return Err(DeError::custom(format!(
            "unknown variant `{got}` of `{name}`"
        )));
    };
    if !data {
        return read(d, i);
    }
    d.value()?;
    let value = read(d, i)?;
    if d.key()? {
        return Err(DeError::custom(format!(
            "expected variant of `{name}`, got map of several entries"
        )));
    }
    Ok(value)
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        d.bool()
    }
}

macro_rules! impl_integer {
    ($($wide:ident: $($t:ty),*;)*) => {$($(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.$wide(*self as $wide);
            }
        }
        impl Deserialize for $t {
            fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
                let wide = match d.number()? {
                    Number::Int(i) => i128::from(i),
                    Number::UInt(u) => i128::from(u),
                    Number::Float(_) => return Err(DeError::custom("expected integer, got float")),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::custom(format!("integer {wide} out of range")))
            }
        }
    )*)*};
}

impl_integer! {
    i64: i8, i16, i32, i64, isize;
    u64: u8, u16, u32, u64, usize;
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, out: &mut S) {
                out.f64(*self as f64);
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Deserialize for f64 {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        Ok(match d.number()? {
            Number::Int(i) => i as f64,
            Number::UInt(u) => u as f64,
            Number::Float(f) => f,
        })
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        d.str().map(str::to_owned)
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

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        (**self).serialize(out);
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        T::deserialize(d).map(std::sync::Arc::new)
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
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        if d.peek()? == Kind::Null {
            d.null().map(|()| None)
        } else {
            T::deserialize(d).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        elements(d)
    }
}

impl<T: Serialize> Serialize for [T] {
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
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        tuple(d, |d| Ok((element(d)?, element(d)?)))
    }
}

/// Reads a sequence, element by element.
fn elements<T: Deserialize, D: Deserializer>(d: &mut D) -> Result<Vec<T>, DeError> {
    let mut items = Vec::new();
    d.begin_seq()?;
    while d.element()? {
        items.push(T::deserialize(d)?);
    }
    Ok(items)
}

/// Reads a map's entries in order. JSON writes a map whose keys are not
/// all strings as an array of `[key, value]` pairs; both representations
/// are accepted.
fn entries<K: Deserialize, V: Deserialize, D: Deserializer>(
    d: &mut D,
) -> Result<Vec<(K, V)>, DeError> {
    if d.peek()? == Kind::Seq {
        return elements(d);
    }
    let mut entries = Vec::new();
    d.begin_map()?;
    while d.key()? {
        let k = K::deserialize(d)?;
        d.value()?;
        entries.push((k, V::deserialize(d)?));
    }
    Ok(entries)
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.map(self);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        entries(d).map(BTreeMap::from_iter)
    }
}

impl<K: Serialize, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.map(self);
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        entries(d).map(HashMap::from_iter)
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, out: &mut S) {
        out.seq(self);
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn deserialize<D: Deserializer>(d: &mut D) -> Result<Self, DeError> {
        elements(d).map(HashSet::from_iter)
    }
}
