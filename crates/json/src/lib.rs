#![warn(missing_docs)]
//! The workspace's one JSON implementation: a small, hand-written value
//! type with one string escaper, one writer and one reader.
//!
//! Everything that leaves the process as JSON — campaign reports, the
//! observatory's `/tables` and `/trends`, scan cursors, serve
//! checkpoint generations — is a [`Wire`] written by [`Wire::encode`]
//! or [`Wire::encode_pretty`]; everything read back — checkpoints, scan
//! cursors, operator-written `--faults` files — goes through
//! [`Wire::decode`]. The line formatters that write fixed fields
//! directly (telemetry JSONL, tap NDJSON, `/healthz`) share
//! [`escape_into`]. Keeping the codec in one std-only crate keeps every
//! durable schema spelled out field by field at its call site, decoupled
//! from `#[derive]` evolution, and keeps the corruption-recovery path
//! free of any dependency's parsing behavior: every accepted byte is
//! accepted by code in this file.
//!
//! The format decisions are pinned by committed checksums:
//!
//! - Object members are written in the order the caller lists them
//!   (deterministic bytes; documents that are specified as sorted-key
//!   list their members sorted).
//! - Integers are exact over the whole `u64` and `i64` ranges (seeds
//!   use all 64 bits).
//! - Floats are written with Rust's shortest round-trip `{:?}` form —
//!   always with a fraction or an exponent (`12.0`, `1e300`), so a
//!   float decodes as a float — and read back with
//!   `str::parse::<f64>`, which recovers the identical bit pattern.
//!   That is the form of the offline stand-in (`orbench/standins`) for
//!   the derive-based JSON crate this one replaced, which the committed
//!   checksums were taken with — not in every case the published
//!   crate's: for magnitudes in `[1e-5, 1e-4)` `{:?}` writes `1e-5`
//!   where ryu writes `0.00001`. Same value either way, and the reader
//!   takes both.
//! - The pretty form is two-space indented with `": "` after keys and
//!   `[]` / `{}` for empty containers.
//!
//! The reader is total: arbitrary bytes produce `Ok` or `Err`, never a
//! panic, in time and memory linear in the input, with container
//! nesting bounded at [`MAX_DEPTH`]. It accepts the JSON grammar and no
//! more — numbers as RFC 8259 spells them (no `+5`, `.5`, `1.` or
//! `01`), `\u` escapes of exactly four hex digits with UTF-16 surrogate
//! pairs combined and lone halves rejected, no raw control bytes inside
//! strings. A repeated object member decodes (the value keeps both);
//! [`Wire::field`], which every typed reader goes through, rejects it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How many containers the reader lets be open at once. Deeper input
/// is an error rather than a stack overflow: an aborting process is
/// the one failure neither `catch_unwind` nor checkpoint quarantine can
/// contain.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// `null` — used for absent optionals.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counts, seeds, epochs).
    U64(u64),
    /// A negative integer (deltas). Non-negative integers are always
    /// [`Wire::U64`] — that is how the reader classifies them and what
    /// `Wire::from(i64)` builds — so equal numbers compare equal.
    I64(i64),
    /// A finite float (scales, rates, percentages).
    F64(f64),
    /// A string (names, map keys, addresses).
    Str(String),
    /// An ordered array.
    Arr(Vec<Wire>),
    /// An object; key order is preserved, so encoding is deterministic.
    Obj(Vec<(String, Wire)>),
}

impl Wire {
    /// Builds an object from `(key, value)` pairs, in that order.
    pub fn obj(fields: Vec<(&str, Wire)>) -> Wire {
        Wire::Obj(
            fields
                .into_iter()
                .map(|(key, value)| (key.to_owned(), value))
                .collect(),
        )
    }

    /// Renders this value as compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Renders this value as two-space-indented JSON (no trailing
    /// newline).
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// The writer. `indent` is `None` for the compact form, or the
    /// current nesting level for the pretty one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        let newline = |out: &mut String, level: Option<usize>| {
            if let Some(level) = level {
                out.push('\n');
                for _ in 0..level {
                    out.push_str("  ");
                }
            }
        };
        match self {
            Wire::Null => out.push_str("null"),
            Wire::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Wire::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Wire::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Wire::F64(x) => {
                // Non-finite floats have no JSON form; encode as null
                // so the value fails decoding loudly instead of writing
                // a file no parser accepts.
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Wire::Str(s) => write_string(out, s),
            Wire::Arr(items) if items.is_empty() => out.push_str("[]"),
            Wire::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Wire::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Wire::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_string(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (the whole input must be consumed, bar
    /// trailing whitespace). Takes text or raw bytes: string contents
    /// are validated as UTF-8 and nothing else in a document is
    /// non-ASCII.
    ///
    /// # Errors
    ///
    /// A description of the first syntax error, including nesting
    /// deeper than [`MAX_DEPTH`].
    pub fn decode(input: impl AsRef<[u8]>) -> Result<Wire, String> {
        let bytes = input.as_ref();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    // ---- typed accessors (decoding helpers) ----

    /// The value of member `name` (the first, should a hostile document
    /// repeat it), if `self` is an object that has it.
    pub fn get(&self, name: &str) -> Option<&Wire> {
        match self {
            Wire::Obj(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// The value of field `name`.
    ///
    /// # Errors
    ///
    /// If `self` is not an object, or the field is missing or there
    /// twice (the typed readers do not pick one of two spellings of a
    /// member).
    pub fn field(&self, name: &str) -> Result<&Wire, String> {
        let Wire::Obj(fields) = self else {
            return Err(format!("expected object around field {name:?}"));
        };
        let mut matches = fields.iter().filter(|(key, _)| key == name);
        match (matches.next(), matches.next()) {
            (Some((_, value)), None) => Ok(value),
            (None, _) => Err(format!("missing field {name:?}")),
            (Some(_), Some(_)) => Err(format!("duplicate field {name:?}")),
        }
    }

    /// Member `name` read through one of the `as_*` accessors, e.g.
    /// `wire.field_as("epoch", Wire::as_u64)`.
    ///
    /// # Errors
    ///
    /// If the member is missing, or `read` rejects it — the error then
    /// starts with the member's name, so nested readers spell out the
    /// path to the offending value.
    pub fn field_as<'a, T>(
        &'a self,
        name: &str,
        read: impl FnOnce(&'a Wire) -> Result<T, String>,
    ) -> Result<T, String> {
        read(self.field(name)?).map_err(|err| format!("{name}: {err}"))
    }

    /// This value as a `u64`.
    ///
    /// # Errors
    ///
    /// If it is not a non-negative integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Wire::U64(n) => Ok(*n),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// This value as a narrower unsigned integer (`u16`, `u32`,
    /// `usize`, ...).
    ///
    /// # Errors
    ///
    /// If it is not a non-negative integer or does not fit `T`.
    pub fn as_uint<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let n = self.as_u64()?;
        T::try_from(n).map_err(|_| format!("{n} is out of range"))
    }

    /// This value as an `f64` (integers widen).
    ///
    /// # Errors
    ///
    /// If it is not numeric.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Wire::U64(n) => Ok(*n as f64),
            Wire::I64(n) => Ok(*n as f64),
            Wire::F64(x) => Ok(*x),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as a `bool`.
    ///
    /// # Errors
    ///
    /// If it is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Wire::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// This value as a string slice.
    ///
    /// # Errors
    ///
    /// If it is not a string.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Wire::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// This value as an array slice.
    ///
    /// # Errors
    ///
    /// If it is not an array.
    pub fn as_arr(&self) -> Result<&[Wire], String> {
        match self {
            Wire::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// This value as an object's members, in document order.
    ///
    /// # Errors
    ///
    /// If it is not an object.
    pub fn as_obj(&self) -> Result<&[(String, Wire)], String> {
        match self {
            Wire::Obj(fields) => Ok(fields),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// This value as `Some(u64)`, with `null` mapping to `None`.
    ///
    /// # Errors
    ///
    /// If it is neither `null` nor an unsigned integer.
    pub fn as_opt_u64(&self) -> Result<Option<u64>, String> {
        match self {
            Wire::Null => Ok(None),
            other => other.as_u64().map(Some),
        }
    }

    /// This value as a string-to-count map.
    ///
    /// # Errors
    ///
    /// If it is not an object of unsigned integers, or repeats a key.
    pub fn as_count_map(&self) -> Result<BTreeMap<String, u64>, String> {
        let fields = self.as_obj()?;
        let map = fields
            .iter()
            .map(|(key, value)| Ok((key.clone(), value.as_u64()?)))
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        if map.len() != fields.len() {
            return Err("duplicate key in count map".to_owned());
        }
        Ok(map)
    }
}

/// `value["member"]`: missing members (and non-objects) read as `null`.
impl std::ops::Index<&str> for Wire {
    type Output = Wire;
    fn index(&self, name: &str) -> &Wire {
        self.get(name).unwrap_or(&Wire::Null)
    }
}

/// `value[position]`: positions past the end (and non-arrays) read as
/// `null`.
impl std::ops::Index<usize> for Wire {
    type Output = Wire;
    fn index(&self, position: usize) -> &Wire {
        match self {
            Wire::Arr(items) => items.get(position).unwrap_or(&Wire::Null),
            _ => &Wire::Null,
        }
    }
}

impl From<u64> for Wire {
    fn from(n: u64) -> Wire {
        Wire::U64(n)
    }
}

macro_rules! wire_from_narrower_unsigned {
    ($($ty:ty)*) => {$(
        impl From<$ty> for Wire {
            fn from(n: $ty) -> Wire {
                Wire::U64(n as u64)
            }
        }
    )*};
}
wire_from_narrower_unsigned!(u16 u32 usize);

impl From<i64> for Wire {
    fn from(n: i64) -> Wire {
        u64::try_from(n).map_or(Wire::I64(n), Wire::U64)
    }
}

impl From<f64> for Wire {
    fn from(x: f64) -> Wire {
        Wire::F64(x)
    }
}

impl From<bool> for Wire {
    fn from(b: bool) -> Wire {
        Wire::Bool(b)
    }
}

impl From<&str> for Wire {
    fn from(s: &str) -> Wire {
        Wire::Str(s.to_owned())
    }
}

impl From<String> for Wire {
    fn from(s: String) -> Wire {
        Wire::Str(s)
    }
}

/// `None` -> `null`.
impl<T: Into<Wire>> From<Option<T>> for Wire {
    fn from(value: Option<T>) -> Wire {
        value.map_or(Wire::Null, Into::into)
    }
}

/// A string-to-count map with deterministic (sorted) key order.
impl From<&BTreeMap<String, u64>> for Wire {
    fn from(map: &BTreeMap<String, u64>) -> Wire {
        Wire::Obj(
            map.iter()
                .map(|(key, value)| (key.clone(), Wire::U64(*value)))
                .collect(),
        )
    }
}

/// Appends `s` with JSON string escaping applied — the part between the
/// quotes, which the caller writes. The workspace's only escaper: the
/// [`Wire`] writer and every line formatter that writes its fixed
/// fields directly go through it.
pub fn escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so the stretches between
    // them are whole scalars and copy over in one piece.
    let mut copied = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[copied..i]);
        copied = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[copied..]);
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, expected: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&expected) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at offset {pos}",
            char::from(expected)
        ))
    }
}

/// Parses the value at `pos`; `depth` containers are open around it.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Wire, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} containers at offset {pos}"
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Wire::Str),
        Some(b't') => parse_literal(bytes, pos, "true").map(|()| Wire::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false").map(|()| Wire::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null").map(|()| Wire::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Wire, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos - from
    };
    // The JSON grammar, checked before `str::parse` (which would also
    // take "+5", ".5", "1." and "01"): an optional minus, an integer
    // part without a leading zero, an optional fraction, an optional
    // exponent.
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let leading_zero = bytes.get(*pos) == Some(&b'0');
    let mut well_formed = match digits(pos) {
        0 => false,
        1 => true,
        _ => !leading_zero,
    };
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        well_formed &= digits(pos) > 0;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        well_formed &= digits(pos) > 0;
    }
    if *pos == start {
        return Err(format!("expected value at offset {start}"));
    }
    let text = String::from_utf8_lossy(&bytes[start..*pos]);
    if !well_formed {
        return Err(format!("bad number {text:?} at offset {start}"));
    }
    // Integers first (exact for the full u64 and i64 ranges: seeds use
    // all 64 bits), floats as the fallback.
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Wire::U64(n));
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Wire::from(n));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Wire::F64(x)),
        _ => Err(format!("bad number {text:?} at offset {start}")),
    }
}

/// The four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0u32, |code, &digit| {
        let value = char::from(digit).to_digit(16).ok_or("bad \\u escape")?;
        Ok(code << 4 | value)
    })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&code) {
                            // A scalar beyond the basic plane is a
                            // UTF-16 pair: the low half must follow.
                            let low = match bytes.get(*pos + 1..*pos + 3) {
                                Some(b"\\u") => parse_hex4(bytes, *pos + 3)?,
                                _ => 0,
                            };
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("unpaired surrogate in \\u escape".to_owned());
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        out.push(char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?);
                    }
                    _ => return Err("bad escape".to_owned()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Everything up to the next quote, backslash or (never
                // legal unescaped) control byte is literal text. All of
                // those are ASCII, which never occurs inside a
                // multi-byte scalar, so the run ends on a scalar
                // boundary; validating just the run, once, is what
                // keeps decoding linear in the document.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                    .unwrap_or(rest.len());
                if rest.get(run).is_some_and(|b| *b < 0x20) {
                    return Err(format!(
                        "unescaped control byte in string at offset {}",
                        *pos + run
                    ));
                }
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "bad utf-8")?);
                *pos += run;
            }
        }
    }
}

/// Parses an array; `depth` counts it.
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Wire, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Wire::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Wire::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

/// Parses an object; `depth` counts it.
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Wire, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Wire::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Wire::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (value, expected) in [
            (Wire::Null, "null"),
            (Wire::Bool(true), "true"),
            (Wire::U64(u64::MAX), "18446744073709551615"),
            (Wire::I64(i64::MIN), "-9223372036854775808"),
            (Wire::F64(0.25), "0.25"),
            (Wire::F64(12.0), "12.0"),
            (Wire::F64(-0.0), "-0.0"),
            (Wire::F64(1e300), "1e300"),
            (Wire::Str("a \"b\"\n\\".to_owned()), r#""a \"b\"\n\\""#),
        ] {
            for encoded in [value.encode(), value.encode_pretty()] {
                assert_eq!(encoded, expected);
                assert_eq!(Wire::decode(&encoded).unwrap(), value);
            }
        }
    }

    #[test]
    fn signed_integers_are_canonical() {
        assert_eq!(Wire::from(-2i64), Wire::I64(-2));
        assert_eq!(Wire::from(2i64), Wire::U64(2));
        assert_eq!(Wire::decode("-2").unwrap(), Wire::I64(-2));
        assert_eq!(Wire::decode("-0").unwrap(), Wire::U64(0));
        assert_eq!(Wire::decode("-2").unwrap().as_f64().unwrap(), -2.0);
        assert!(Wire::decode("-2").unwrap().as_u64().is_err());
        // One past either end of the integer ranges is still a number.
        assert_eq!(
            Wire::decode("18446744073709551616").unwrap(),
            Wire::F64(18_446_744_073_709_551_616.0)
        );
    }

    #[test]
    fn integers_written_before_floats_kept_their_fraction_still_widen() {
        // Checkpoints from before the `{:?}` float form wrote 60000.0 as
        // "60000"; that reads as an integer and widens back exactly.
        let decoded = Wire::decode("60000").unwrap();
        assert_eq!(decoded, Wire::U64(60_000));
        assert_eq!(decoded.as_f64().unwrap(), 60_000.0);
    }

    #[test]
    fn awkward_floats_roundtrip_bit_exact() {
        for x in [0.1, 2.0 / 3.0, 1e300, 5e-324, 123_456_789.987_654_32, 1e16] {
            let decoded = Wire::decode(Wire::F64(x).encode()).unwrap();
            assert_eq!(decoded, Wire::F64(x));
            assert_eq!(decoded.as_f64().unwrap().to_bits(), x.to_bits());
        }
        assert_eq!(Wire::F64(f64::NAN).encode(), "null");
    }

    #[test]
    fn nested_structures_roundtrip_deterministically() {
        let value = Wire::obj(vec![
            ("counts", Wire::Arr(vec![Wire::U64(1), Wire::U64(2)])),
            ("nested", Wire::obj(vec![("x", Wire::Null)])),
            ("flag", Wire::Bool(false)),
        ]);
        let encoded = value.encode();
        assert_eq!(
            encoded,
            r#"{"counts":[1,2],"nested":{"x":null},"flag":false}"#
        );
        let decoded = Wire::decode(&encoded).unwrap();
        assert_eq!(decoded, value);
        assert_eq!(decoded.encode(), encoded, "stable under re-encoding");
        assert_eq!(decoded.field_as("flag", Wire::as_bool), Ok(false));
        assert!(decoded.field("absent").is_err());
        let err = decoded.field_as("flag", Wire::as_u64).unwrap_err();
        assert!(err.starts_with("flag: "), "{err}");
        assert_eq!(decoded["counts"][1].as_uint::<u16>(), Ok(2));
        assert!(Wire::U64(70_000).as_uint::<u16>().is_err());
        assert_eq!(decoded["counts"][1], Wire::U64(2));
        assert_eq!(decoded["absent"]["deeper"][3], Wire::Null);
    }

    #[test]
    fn pretty_form_is_two_space_indented_with_bare_empty_containers() {
        let value = Wire::obj(vec![
            ("a", Wire::Arr(vec![Wire::U64(1), Wire::U64(2)])),
            ("b", Wire::obj(vec![("x", Wire::from(1.5))])),
            ("empty_arr", Wire::Arr(Vec::new())),
            ("empty_obj", Wire::Obj(Vec::new())),
            ("none", Wire::from(None::<u64>)),
        ]);
        let pretty = value.encode_pretty();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"x\": 1.5\n  },\n  \
             \"empty_arr\": [],\n  \"empty_obj\": {},\n  \"none\": null\n}"
        );
        assert_eq!(Wire::decode(&pretty).unwrap(), value);
    }

    #[test]
    fn whitespace_is_tolerated_garbage_is_not() {
        assert_eq!(
            Wire::decode(" {\n\t\"a\" : [ 1 , 2 ] }\n").unwrap(),
            Wire::obj(vec![("a", Wire::Arr(vec![Wire::U64(1), Wire::U64(2)]))])
        );
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1}trailing",
            "NaN",
            "1e999",
            "-",
            "--1",
            // What `str::parse` would take but the JSON grammar does not.
            "+5",
            ".5",
            "1.",
            "01",
            "-01",
            "1e",
            "1e+",
            "1.e3",
            "0x10",
            // Escapes: four hex digits, surrogates only in pairs.
            r#""\u+041""#,
            r#""\u41""#,
            r#""\ud83d""#,
            r#""\ud83d\n""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\x41""#,
            // Control bytes inside a string must be escaped.
            "\"a\nb\"",
            "\"a\u{0}b\"",
            "\"tab\there\"",
        ] {
            assert!(Wire::decode(bad).is_err(), "{bad:?} must not parse");
        }
        for (good, expected) in [
            ("0", Wire::U64(0)),
            ("-0.0", Wire::F64(-0.0)),
            ("0.5e-3", Wire::F64(0.0005)),
            ("0.00001", Wire::F64(1e-5)),
            ("1E+2", Wire::F64(100.0)),
            (r#""\ud83d\ude00 \u00E9""#, Wire::from("\u{1f600} \u{e9}")),
            (r#""\udbff\udfff""#, Wire::from("\u{10ffff}")),
        ] {
            assert_eq!(Wire::decode(good), Ok(expected), "{good:?}");
        }
    }

    #[test]
    fn typed_readers_reject_a_member_that_is_there_twice() {
        let twice = Wire::decode(r#"{"a":1,"b":2,"a":3}"#).unwrap();
        assert_eq!(twice.get("a"), Some(&Wire::U64(1)));
        assert_eq!(twice.field("b"), Ok(&Wire::U64(2)));
        let err = twice.field_as("a", Wire::as_u64).unwrap_err();
        assert!(err.contains("duplicate") && err.contains("\"a\""), "{err}");
        assert!(twice.as_count_map().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // At the parent this aborted the process (SIGABRT, "stack
        // overflow"): no `catch_unwind` and no quarantine path sees that.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            let err = Wire::decode(open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Wire::decode(nested(MAX_DEPTH)).is_ok());
        assert!(Wire::decode(nested(MAX_DEPTH + 1)).is_err());
        // Breadth is not depth.
        assert!(Wire::decode(format!("[{}[]]", "[],".repeat(10_000))).is_ok());
    }

    #[test]
    fn a_megabyte_string_roundtrips_in_linear_time() {
        // Escapes, control characters and 2-, 3- and 4-byte scalars all
        // through the text, so no stretch of it is one plain run.
        let unit = "plain \"quoted\" back\\slash\n\ttab \u{1} caf\u{e9} \u{20ac} \u{1f50d} ";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let document = Wire::obj(vec![("history", Wire::Str(text.clone()))]).encode();
        let started = std::time::Instant::now();
        let decoded = Wire::decode(&document).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(decoded.field("history").unwrap(), &Wire::Str(text));
        // A decoder that validates the rest of the document once per
        // character does ~5 * 10^11 byte checks here: minutes, not ms.
        assert!(
            elapsed < std::time::Duration::from_millis(500),
            "decoding {} bytes took {elapsed:?}",
            document.len()
        );
    }

    #[test]
    fn escaper_covers_quotes_controls_and_leaves_scalars_alone() {
        let mut out = String::new();
        escape_into(
            &mut out,
            "a\"b\\c\nd\re\tf\u{8}g\u{c}h\u{1}i caf\u{e9} \u{1f50d}",
        );
        assert_eq!(
            out,
            "a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i caf\u{e9} \u{1f50d}"
        );
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let encoded = Wire::Str(all_controls.clone()).encode();
        assert!(encoded.is_ascii() && !encoded.bytes().any(|b| b < 0x20));
        assert_eq!(Wire::decode(&encoded).unwrap(), Wire::Str(all_controls));
    }

    #[test]
    fn string_bytes_that_are_not_utf8_are_rejected_without_panicking() {
        let parse = |bytes: &[u8]| parse_string(bytes, &mut 0);
        assert_eq!(
            parse("\"caf\u{e9} \u{1f50d}\"".as_bytes()).unwrap(),
            "caf\u{e9} \u{1f50d}"
        );
        for bad in [
            &b"\"\xff\""[..],    // never a lead byte
            b"\"\xc3\"",         // lead byte, then the closing quote
            b"\"\x80abc\"",      // stray continuation byte
            b"\"\xe2\x82\\n\"",  // scalar cut short by an escape
            b"\"\xed\xa0\x80\"", // UTF-16 surrogate
            b"\"\xc0\xaf\"",     // overlong encoding
            b"\"\xf0\x9f\x94",   // truncated at the end of input
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
            assert!(Wire::decode(bad).is_err(), "{bad:?} must not decode");
        }
        // Every prefix of a valid string is an error, never a panic.
        let whole = "\"a\\u00e9\\\\ \u{20ac}\\n\u{1f50d}\"".as_bytes();
        for cut in 0..whole.len() {
            assert!(parse(&whole[..cut]).is_err(), "prefix of {cut} bytes");
        }
        assert!(parse(whole).is_ok());
    }

    #[test]
    fn count_maps_roundtrip() {
        let map = BTreeMap::from([("honest".to_owned(), 7u64), ("silent".to_owned(), 0)]);
        let decoded = Wire::decode(Wire::from(&map).encode()).unwrap();
        assert_eq!(decoded.as_count_map().unwrap(), map);
    }
}
