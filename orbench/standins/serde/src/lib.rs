//! Offline stand-in for `serde`.
//!
//! The published crate drives a visitor-based data model; this one
//! converts through one JSON-shaped tree, [`Value`], which is all the
//! repository's call sites need (`#[derive(Serialize, Deserialize)]` on
//! plain structs and enums, consumed by `serde_json`). The tree lives
//! here so the derive output and `serde_json` share it; `serde_json`
//! re-exports it under the usual names.
//!
//! JSON shapes follow the published crate: structs are objects, newtype
//! structs are their inner value, enums are externally tagged, `Option`
//! is `null`-or-value, `Ipv4Addr` is its dotted string, `Duration` is
//! `{"secs", "nanos"}`. One visible difference: a struct serialised
//! directly comes out with *sorted* keys (the published crate keeps
//! declaration order unless the value first passes through `Value`).

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

/// A conversion failure (wrong shape, missing field, out-of-range number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// An error carrying `message`.
    pub fn custom(message: impl fmt::Display) -> Self {
        Self(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// A JSON number: non-negative integers, negative integers, or a finite
/// float (the three representations compare unequal, as published).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A finite float.
    Float(f64),
}

impl Number {
    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `i64` when it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }

    /// The value as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(x) => x,
        })
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::PosInt(n) => write!(f, "{n}"),
            Number::NegInt(n) => write!(f, "{n}"),
            // `{:?}` prints the shortest digits that round-trip and keeps
            // a trailing `.0` on integral floats, like the published crate.
            Number::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// A JSON object with sorted keys (the published default).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map(BTreeMap<String, Value>);

impl Map {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a member, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.0.insert(key, value)
    }

    /// Looks a member up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(key)
    }

    /// Member count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the object has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Members in key order.
    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::collections::btree_map::IntoIter<String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object, or element `index` of an array.
    pub fn get<I: ValueIndex>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Writes compact JSON.
    pub fn write_compact(&self, out: &mut String) {
        match self {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    /// Writes two-space-indented JSON in the published pretty layout.
    pub fn write_pretty(&self, out: &mut String, depth: usize) {
        fn indent(out: &mut String, depth: usize) {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                indent(out, depth);
                out.push(']');
            }
            Value::Object(map) if !map.is_empty() => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    indent(out, depth + 1);
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
            Value::Array(_) => out.push_str("[]"),
            Value::Object(_) => out.push_str("{}"),
            scalar => scalar.write_scalar(out),
        }
    }

    fn write_scalar(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Value::String(s) => write_string(s, out),
            Value::Array(_) | Value::Object(_) => {
                unreachable!("containers are written by the caller")
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Value {
    /// Compact JSON; `{:#}` is the pretty layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out, f.alternate());
        f.write_str(&out)
    }
}

/// What [`Value::get`] and `value[...]` accept: a key or a position.
pub trait ValueIndex {
    /// Looks `self` up in `value`.
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl ValueIndex for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }
}

impl ValueIndex for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }
}

impl<T: ValueIndex + ?Sized> ValueIndex for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

impl<I: ValueIndex> std::ops::Index<I> for Value {
    type Output = Value;
    /// Missing members read as `null`, as in the published crate.
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

/// A type that converts into the JSON tree.
pub trait Serialize {
    /// The JSON form of `self`.
    fn to_value(&self) -> Value;

    /// Writes `self` as JSON text. Typed values go through the tree; a
    /// [`Value`] writes itself in place, as the published crate does,
    /// so rendering a large document does not first copy it.
    fn write_json(&self, out: &mut String, pretty: bool) {
        self.to_value().write_json(out, pretty);
    }
}

/// A type that converts back from the JSON tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from its JSON form.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// What a struct field of this type becomes when its key is absent
    /// (`None` for `Option`, an error otherwise).
    fn missing_field(name: &str) -> Result<Self, Error> {
        Err(Error(format!("missing field `{name}`")))
    }
}

fn unexpected<T>(expected: &str, got: &Value) -> Result<T, Error> {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    };
    Err(Error(format!("invalid type: {kind}, expected {expected}")))
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String, pretty: bool) {
        if pretty {
            self.write_pretty(out, 0);
        } else {
            self.write_compact(out);
        }
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .map_or_else(|| unexpected("a boolean", value), Ok)
    }
}

macro_rules! unsigned {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let Some(n) = value.as_u64() else {
                    return unexpected(stringify!($ty), value);
                };
                <$ty>::try_from(n).map_err(|_| Error(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}
unsigned!(u8 u16 u32 u64 usize);

macro_rules! signed {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                Value::Number(if n >= 0 { Number::PosInt(n as u64) } else { Number::NegInt(n) })
            }
        }
        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let Some(n) = value.as_i64() else {
                    return unexpected(stringify!($ty), value);
                };
                <$ty>::try_from(n).map_err(|_| Error(format!("{n} out of range for {}", stringify!($ty))))
            }
        }
    )*};
}
signed!(i8 i16 i32 i64 isize);

macro_rules! float {
    ($($ty:ty)*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                // JSON has no NaN or infinity; the published crate writes null.
                if self.is_finite() {
                    Value::Number(Number::Float(f64::from(*self)))
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                value.as_f64().map_or_else(|| unexpected("a float", value), |x| Ok(x as $ty))
            }
        }
    )*};
}
float!(f32 f64);

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map_or_else(|| unexpected("a string", value), |s| Ok(s.to_owned()))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String, pretty: bool) {
        (**self).write_json(out, pretty);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Serialize::to_value)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }

    fn missing_field(_name: &str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let Some(items) = value.as_array() else {
            return unexpected("an array", value);
        };
        items.iter().map(T::from_value).collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let Some(map) = value.as_object() else {
            return unexpected("an object", value);
        };
        map.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

macro_rules! tuple {
    ($len:literal: $($name:ident $index:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$index.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value.as_array() {
                    Some(items) if items.len() == $len => Ok(($($name::from_value(&items[$index])?,)+)),
                    _ => unexpected(concat!("an array of length ", $len), value),
                }
            }
        }
    };
}
tuple!(1: A 0);
tuple!(2: A 0, B 1);
tuple!(3: A 0, B 1, C 2);
tuple!(4: A 0, B 1, C 2, D 3);

impl Serialize for Ipv4Addr {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for Ipv4Addr {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let Some(text) = value.as_str() else {
            return unexpected("an IPv4 address string", value);
        };
        text.parse()
            .map_err(|_| Error(format!("invalid IPv4 address `{text}`")))
    }
}

impl Serialize for Duration {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("secs".to_owned(), self.as_secs().to_value());
        map.insert("nanos".to_owned(), self.subsec_nanos().to_value());
        Value::Object(map)
    }
}

impl Deserialize for Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let secs = value
            .get("secs")
            .map_or_else(|| u64::missing_field("secs"), u64::from_value)?;
        let nanos = value
            .get("nanos")
            .map_or_else(|| u32::missing_field("nanos"), u32::from_value)?;
        Ok(Duration::new(secs, nanos))
    }
}

/// Helpers the derive output calls; not part of the public surface.
#[doc(hidden)]
pub mod __private {
    use super::{unexpected, Deserialize, Error, Value};

    /// One named struct field: present, defaulted, or an error.
    pub fn field<T: Deserialize>(object: &Value, name: &str) -> Result<T, Error> {
        match object.get(name) {
            Some(value) => T::from_value(value).map_err(|e| Error(format!("{name}: {e}"))),
            None => T::missing_field(name),
        }
    }

    /// A `#[serde(default)]` field.
    pub fn field_or_default<T: Deserialize + Default>(
        object: &Value,
        name: &str,
    ) -> Result<T, Error> {
        match object.get(name) {
            Some(value) => T::from_value(value).map_err(|e| Error(format!("{name}: {e}"))),
            None => Ok(T::default()),
        }
    }

    /// Requires `value` to be an object (the body of a struct).
    pub fn expect_object(value: &Value, what: &str) -> Result<(), Error> {
        if value.as_object().is_some() {
            Ok(())
        } else {
            unexpected(what, value)
        }
    }

    /// Element `index` of a tuple struct or tuple variant body of `len`.
    pub fn element<T: Deserialize>(value: &Value, index: usize, len: usize) -> Result<T, Error> {
        match value.as_array() {
            Some(items) if items.len() == len => T::from_value(&items[index]),
            _ => unexpected("a tuple", value),
        }
    }

    /// Splits an externally tagged enum into `(variant, body)`.
    pub fn variant(value: &Value) -> Result<(&str, Option<&Value>), Error> {
        match value {
            Value::String(name) => Ok((name, None)),
            Value::Object(map) if map.len() == 1 => {
                let (name, body) = map.iter().next().expect("one member");
                Ok((name, Some(body)))
            }
            other => unexpected("an enum variant", other),
        }
    }

    /// The body of a non-unit variant.
    pub fn variant_body<'v>(body: Option<&'v Value>, name: &str) -> Result<&'v Value, Error> {
        body.ok_or_else(|| Error(format!("variant `{name}` needs a body")))
    }

    /// An unknown-variant error.
    pub fn unknown_variant<T>(name: &str, ty: &str) -> Result<T, Error> {
        Err(Error(format!("unknown variant `{name}` of {ty}")))
    }
}
