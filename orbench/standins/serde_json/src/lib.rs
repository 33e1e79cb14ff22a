//! Offline stand-in for `serde_json`, over the stand-in `serde`'s value
//! tree: `Value`/`Map`/`Number`, `json!`, `to_value`/`from_value`,
//! `to_string`/`to_string_pretty`, `from_str`.
//!
//! Output layout matches the published crate byte for byte for the
//! documents this repository renders (sorted object keys, two-space
//! pretty indent, `[]`/`{}` for empty containers, shortest round-trip
//! floats, non-finite floats as `null`).

pub use serde::{Map, Number, Value};

/// A (de)serialisation failure.
pub type Error = serde::Error;
/// `Result` with this crate's error.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serialisable value into the tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from the tree.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value)
}

/// Compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out, false);
    Ok(out)
}

/// Pretty JSON text (two-space indent, no trailing newline).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out, true);
    Ok(out)
}

/// Parses JSON text into a typed value.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = parser.value(0)?;
    parser.skip_whitespace();
    if parser.at != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    T::from_value(&value)
}

/// Nesting limit, as in the published crate: hostile input cannot
/// overflow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> Error {
        Error::custom(format!("{what} at byte {}", self.at))
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.skip_whitespace();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_whitespace();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_whitespace();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut map = Map::new();
                self.skip_whitespace();
                if self.eat("}") {
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_whitespace();
                    if self.bytes.get(self.at) != Some(&b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_whitespace();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_whitespace();
                    if self.eat("}") {
                        return Ok(Value::Object(map));
                    }
                    if !self.eat(",") {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.at;
        let mut integral = true;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => integral = false,
                _ => break,
            }
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        let number = if integral {
            if let Ok(n) = text.parse::<u64>() {
                Some(Number::PosInt(n))
            } else {
                text.parse::<i64>().ok().map(Number::NegInt)
            }
        } else {
            None
        };
        match number.or_else(|| {
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .map(Number::Float)
        }) {
            Some(number) => Ok(Value::Number(number)),
            None => Err(self.error("invalid number")),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.at += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.at;
            while !matches!(self.bytes.get(self.at), None | Some(b'"' | b'\\')) {
                self.at += 1;
            }
            // The input is a `&str` and the run ends on an ASCII byte, so
            // the slice is whole UTF-8 sequences.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.at]).expect("valid UTF-8"));
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let escape = *self
                        .bytes
                        .get(self.at)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{08}',
                        b'f' => '\u{0C}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    });
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .ok_or_else(|| self.error("short \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.at += 4;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char> {
        let first = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&first) {
            if !self.eat("\\u") {
                return Err(self.error("lone surrogate"));
            }
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid surrogate pair"));
            }
            0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid code point"))
    }
}

/// Builds a [`Value`] from JSON-like syntax; interpolated expressions go
/// through [`to_value`].
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($items:tt)+ ]) => {{
        let mut array = ::std::vec::Vec::new();
        $crate::json_array!(array $($items)+);
        $crate::Value::Array(array)
    }};
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($members:tt)+ }) => {{
        let mut object = $crate::Map::new();
        $crate::json_object!(object $($members)+);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::to_value(&$other).expect("stand-in to_value is infallible") };
}

/// `json!` helper: pushes array elements one at a time. Container and
/// `null` literals are matched before the general expression rule.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    ($array:ident) => {};
    ($array:ident null $(, $($rest:tt)*)?) => {
        $array.push($crate::Value::Null);
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $array.push($crate::json!([ $($inner)* ]));
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $array.push($crate::json!({ $($inner)* }));
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident $value:expr , $($rest:tt)*) => {
        $array.push($crate::json!($value));
        $crate::json_array!($array $($rest)*);
    };
    ($array:ident $value:expr) => {
        $array.push($crate::json!($value));
    };
}

/// `json!` helper: inserts object members one at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    ($object:ident) => {};
    ($object:ident $key:literal : null $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::Value::Null);
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!([ $($inner)* ]));
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!({ $($inner)* }));
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:literal : $value:expr , $($rest:tt)*) => {
        $object.insert(::std::string::String::from($key), $crate::json!($value));
        $crate::json_object!($object $($rest)*);
    };
    ($object:ident $key:literal : $value:expr) => {
        $object.insert(::std::string::String::from($key), $crate::json!($value));
    };
}
