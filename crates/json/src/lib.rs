#![warn(missing_docs)]
//! The workspace's one JSON implementation: a small, hand-written value
//! type, one string escaper, one streaming [`Writer`] and one pull
//! [`Reader`].
//!
//! Everything that leaves the process as JSON — campaign reports, the
//! observatory's `/tables` and `/trends`, serve checkpoint generations —
//! is written by [`Writer`], token by token into one buffer;
//! [`Wire::encode`] and [`Wire::encode_pretty`] are the writer walking a
//! [`Wire`] tree. Everything read back — checkpoints, operator-written
//! `--faults` files — is read by [`Reader`], which hands out one member
//! or item at a time; [`Wire::decode`] is the reader building a tree. A document with a
//! long history (the observatory's checkpoint) is written and read
//! field by field from its rows and never exists as a tree. The line
//! formatters that write fixed fields directly (telemetry JSONL, tap
//! NDJSON, `/healthz`) share [`escape_into`]. Keeping the codec in one
//! std-only crate keeps every durable schema spelled out field by field
//! at its call site, decoupled from `#[derive]` evolution, and keeps the
//! corruption-recovery path free of any dependency's parsing behavior:
//! every accepted byte is accepted by code in this file.
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
//! strings. A repeated object member decodes into a tree (the value
//! keeps both); [`Wire::field`] and [`Reader::object`], which every
//! typed reader goes through, reject it.

use std::borrow::Cow;
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
        Writer::compact(&mut out).value(self);
        out
    }

    /// Renders this value as two-space-indented JSON (no trailing
    /// newline).
    pub fn encode_pretty(&self) -> String {
        let mut out = String::new();
        Writer::pretty(&mut out).value(self);
        out
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
        let mut reader = Reader::new(input.as_ref());
        let value = reader.value()?;
        reader.finish()?;
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

/// Appends `s` with JSON string escaping applied — the part between the
/// quotes, which the caller writes. The workspace's only escaper: the
/// [`Writer`] and every line formatter that writes its fixed fields
/// directly go through it.
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

/// The writer: appends one document to a `String`, token by token, in
/// the compact or the pretty form. The caller opens and closes the
/// containers and names each member before its value; the writer places
/// the commas, line breaks and indentation, so a document written here
/// is byte for byte the one [`Wire::encode`] (or
/// [`Wire::encode_pretty`]) makes of the same tree — without the tree.
///
/// ```
/// use orscope_json::{Wire, Writer};
///
/// let mut out = String::new();
/// let mut doc = Writer::pretty(&mut out);
/// doc.begin_object().key("epochs").begin_array();
/// for epoch in 0..2u64 {
///     doc.u64(epoch);
/// }
/// doc.end_array().key("degraded").bool(false).end_object();
/// let tree = Wire::obj(vec![
///     ("epochs", Wire::Arr(vec![Wire::U64(0), Wire::U64(1)])),
///     ("degraded", Wire::Bool(false)),
/// ]);
/// assert_eq!(out, tree.encode_pretty());
/// ```
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut String,
    pretty: bool,
    /// Containers open.
    depth: usize,
    /// Nothing written yet in the innermost open container.
    fresh: bool,
    /// A member name was just written: its value follows on the line.
    after_key: bool,
}

impl<'a> Writer<'a> {
    /// A writer of the compact form, appending to `out`.
    pub fn compact(out: &'a mut String) -> Self {
        Self::new(out, false)
    }

    /// A writer of the two-space-indented form (no trailing newline),
    /// appending to `out`.
    pub fn pretty(out: &'a mut String) -> Self {
        Self::new(out, true)
    }

    fn new(out: &'a mut String, pretty: bool) -> Self {
        Self {
            out,
            pretty,
            depth: 0,
            fresh: true,
            after_key: false,
        }
    }

    /// What goes before a value or a member name: nothing after a name,
    /// else a comma unless it is the container's first, then its line.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        if self.depth > 0 {
            if !self.fresh {
                self.out.push(',');
            }
            self.newline();
        }
        self.fresh = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.separate();
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth -= 1;
        if !self.fresh {
            self.newline();
        }
        self.out.push(bracket);
        self.fresh = false;
        self
    }

    /// Opens an object: members follow as [`Self::key`] + value pairs.
    pub fn begin_object(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Names the next member of the innermost object; its value is what
    /// is written next.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        escape_into(self.out, name);
        self.out.push_str(if self.pretty { "\": " } else { "\":" });
        self.after_key = true;
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.separate();
        self.out.push_str("null");
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.separate();
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{n}");
        self
    }

    /// A signed integer.
    pub fn i64(&mut self, n: i64) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{n}");
        self
    }

    /// A float in its shortest round-trip form. Non-finite floats have
    /// no JSON form and are written as `null`, so the value fails
    /// decoding loudly instead of making a file no parser accepts.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        if x.is_finite() {
            self.separate();
            let _ = write!(self.out, "{x:?}");
            self
        } else {
            self.null()
        }
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        escape_into(self.out, s);
        self.out.push('"');
        self
    }

    /// A whole [`Wire`] tree.
    pub fn value(&mut self, value: &Wire) -> &mut Self {
        match value {
            Wire::Null => self.null(),
            Wire::Bool(b) => self.bool(*b),
            Wire::U64(n) => self.u64(*n),
            Wire::I64(n) => self.i64(*n),
            Wire::F64(x) => self.f64(*x),
            Wire::Str(s) => self.str(s),
            Wire::Arr(items) => {
                self.begin_array();
                for item in items {
                    self.value(item);
                }
                self.end_array()
            }
            Wire::Obj(fields) => {
                self.begin_object();
                for (key, value) in fields {
                    self.key(key).value(value);
                }
                self.end_object()
            }
        }
    }
}

/// The reader: pulls one document out of a byte slice a value at a
/// time, so a typed reader fills its own structs as the members go by
/// and nothing of the document is kept but what they keep. Object
/// members are met through [`Self::members`] or [`Self::object`], array
/// items through [`Self::array`]; member names that need no unescaping
/// are borrowed from the input.
///
/// Every method is total: malformed input of any kind is an `Err`,
/// never a panic, and what the reader accepts is exactly what
/// [`Wire::decode`] — this reader building a tree — accepts.
///
/// ```
/// use orscope_json::Reader;
///
/// let mut input = Reader::new(br#"{"epoch": 3, "days": [0.5, 1.5], "note": "ignored"}"#);
/// let (mut epoch, mut days) = (0, Vec::new());
/// input
///     .object(&["epoch", "days"], |input, name| {
///         match name {
///             "epoch" => epoch = input.u64()?,
///             _ => {
///                 input.array(|input, _| Ok(days.push(input.f64()?)))?;
///             }
///         }
///         Ok(())
///     })
///     .unwrap();
/// input.finish().unwrap();
/// assert_eq!((epoch, days), (3, vec![0.5, 1.5]));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open.
    depth: usize,
    /// Nothing read yet in the innermost open container.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            bytes: input,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Checks that nothing but whitespace follows the document.
    ///
    /// # Errors
    ///
    /// If anything else does.
    pub fn finish(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing bytes at offset {}", self.pos)),
        }
    }

    /// Reads an object, handing each member's name to `member`, which
    /// must read (or [`skip`](Self::skip)) the member's value.
    ///
    /// # Errors
    ///
    /// A syntax error, or the first error `member` returns.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        while let Some(name) = self.next_key()? {
            member(self, name)?;
        }
        Ok(())
    }

    /// Reads an object whose members are `names`, each exactly once and
    /// in any order, handing each to `member` by name; members not in
    /// `names` (at most 64 of them) are skipped.
    ///
    /// # Errors
    ///
    /// A syntax error, a listed member missing or there twice, or the
    /// first error `member` returns — prefixed with the member's name,
    /// so nested readers spell out the path to the offending value.
    pub fn object(
        &mut self,
        names: &[&'static str],
        mut member: impl FnMut(&mut Self, &'static str) -> Result<(), String>,
    ) -> Result<(), String> {
        debug_assert!(names.len() <= 64, "one bit of `seen` a member");
        let mut seen = 0u64;
        self.members(|input, key| {
            let Some(index) = names.iter().position(|name| key == *name) else {
                return input.skip();
            };
            let name = names[index];
            if seen & 1 << index != 0 {
                return Err(format!("duplicate field {name:?}"));
            }
            seen |= 1 << index;
            member(input, name).map_err(|err| format!("{name}: {err}"))
        })?;
        match (0..names.len()).find(|index| seen & 1 << index == 0) {
            Some(missing) => Err(format!("missing field {:?}", names[missing])),
            None => Ok(()),
        }
    }

    /// Reads an array, calling `item` with each item's position; `item`
    /// must read (or [`skip`](Self::skip)) the item. Returns the item
    /// count.
    ///
    /// # Errors
    ///
    /// A syntax error, or the first error `item` returns.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), String>,
    ) -> Result<usize, String> {
        self.open(b'[')?;
        let mut count = 0;
        while self.next_item()? {
            item(self, count)?;
            count += 1;
        }
        Ok(count)
    }

    /// An unsigned integer.
    ///
    /// # Errors
    ///
    /// If the next value is anything else.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.scalar()?.as_u64()
    }

    /// A number as an `f64` (integers widen).
    ///
    /// # Errors
    ///
    /// If the next value is not a number.
    pub fn f64(&mut self) -> Result<f64, String> {
        self.scalar()?.as_f64()
    }

    /// `true` or `false`.
    ///
    /// # Errors
    ///
    /// If the next value is anything else.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.scalar()?.as_bool()
    }

    /// A string, borrowed from the input unless it has escapes.
    fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let mut text = Cow::Borrowed("");
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(text);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(text.to_mut())?;
                }
                Some(_) => {
                    // Everything up to the next quote, backslash or
                    // (never legal unescaped) control byte is literal
                    // text. All of those are ASCII, which never occurs
                    // inside a multi-byte scalar, so the run ends on a
                    // scalar boundary; validating just the run, once,
                    // is what keeps reading linear in the document.
                    let bytes: &'a [u8] = self.bytes;
                    let rest = &bytes[self.pos..];
                    let end = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1f))
                        .unwrap_or(rest.len());
                    if rest.get(end).is_some_and(|b| *b < 0x20) {
                        return Err(format!(
                            "unescaped control byte in string at offset {}",
                            self.pos + end
                        ));
                    }
                    let run = std::str::from_utf8(&rest[..end]).map_err(|_| "bad utf-8")?;
                    // A string without escapes borrows its one run.
                    if text.is_empty() {
                        text = Cow::Borrowed(run);
                    } else {
                        text.to_mut().push_str(run);
                    }
                    self.pos += end;
                }
            }
        }
    }

    /// Appends the escape after a backslash (the cursor is on its
    /// letter) and moves past it.
    fn escape(&mut self, text: &mut String) -> Result<(), String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => text.push('"'),
            Some(b'\\') => text.push('\\'),
            Some(b'/') => text.push('/'),
            Some(b'n') => text.push('\n'),
            Some(b'r') => text.push('\r'),
            Some(b't') => text.push('\t'),
            Some(b'b') => text.push('\u{0008}'),
            Some(b'f') => text.push('\u{000c}'),
            Some(b'u') => {
                let mut code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                if (0xD800..0xDC00).contains(&code) {
                    // A scalar beyond the basic plane is a UTF-16 pair:
                    // the low half must follow.
                    let low = match self.bytes.get(self.pos + 1..self.pos + 3) {
                        Some(b"\\u") => self.hex4(self.pos + 3)?,
                        _ => 0,
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err("unpaired surrogate in \\u escape".to_owned());
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    self.pos += 6;
                }
                text.push(char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?);
            }
            _ => return Err("bad escape".to_owned()),
        }
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits of a `\u` escape starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let digits = self.bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
        digits.iter().try_fold(0u32, |code, &digit| {
            let value = char::from(digit).to_digit(16).ok_or("bad \\u escape")?;
            Ok(code << 4 | value)
        })
    }

    /// The next value as a tree.
    ///
    /// # Errors
    ///
    /// A syntax error, including nesting deeper than [`MAX_DEPTH`].
    pub fn value(&mut self) -> Result<Wire, String> {
        match self.peek() {
            Some(b'{') => {
                let mut fields = Vec::new();
                self.members(|input, key| {
                    fields.push((key.into_owned(), input.value()?));
                    Ok(())
                })?;
                Ok(Wire::Obj(fields))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|input, _| {
                    items.push(input.value()?);
                    Ok(())
                })?;
                Ok(Wire::Arr(items))
            }
            Some(b'"') => Ok(Wire::Str(self.str()?.into_owned())),
            _ => self.scalar(),
        }
    }

    /// Reads past the next value, checking it as thoroughly as
    /// [`Self::value`] would and keeping nothing of it.
    ///
    /// # Errors
    ///
    /// A syntax error, including nesting deeper than [`MAX_DEPTH`].
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.members(|input, _| input.skip()),
            Some(b'[') => self.array(|input, _| input.skip()).map(drop),
            Some(b'"') => self.str().map(drop),
            _ => self.scalar().map(drop),
        }
    }

    /// A number, `true`, `false` or `null`.
    fn scalar(&mut self) -> Result<Wire, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b't') => self.literal("true").map(|()| Wire::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Wire::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Wire::Null),
            Some(b'"' | b'{' | b'[') => Err(format!(
                "expected a number, boolean or null at offset {}",
                self.pos
            )),
            Some(_) => self.number(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next byte that is not whitespace, left unread.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, expected: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                char::from(expected),
                self.pos
            ))
        }
    }

    /// Enters the container `bracket` opens, if nesting allows.
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} containers at offset {}",
                self.pos
            ));
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Whether the innermost container goes on past the separator at
    /// the cursor (which is consumed); `false` once it has closed.
    fn more(&mut self, bracket: u8) -> Result<bool, String> {
        self.skip_ws();
        let next = self.bytes.get(self.pos).copied();
        if next == Some(bracket) {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if std::mem::take(&mut self.fresh) {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(format!(
            "expected ',' or '{}' at offset {}",
            char::from(bracket),
            self.pos
        ))
    }

    /// The next member name of the innermost object, with its colon
    /// read; `None` once the object has closed.
    fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Whether the innermost array has another item.
    fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    fn literal(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Wire, String> {
        let bytes = self.bytes;
        let start = self.pos;
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
        let mut pos = start;
        if bytes.get(pos) == Some(&b'-') {
            pos += 1;
        }
        let leading_zero = bytes.get(pos) == Some(&b'0');
        let mut well_formed = match digits(&mut pos) {
            0 => false,
            1 => true,
            _ => !leading_zero,
        };
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            well_formed &= digits(&mut pos) > 0;
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            well_formed &= digits(&mut pos) > 0;
        }
        self.pos = pos;
        if pos == start {
            return Err(format!("expected value at offset {start}"));
        }
        // Only ASCII was consumed, so the text borrows.
        let text = String::from_utf8_lossy(&bytes[start..pos]);
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
        assert_eq!(Reader::new(b"60000").f64(), Ok(60_000.0));
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
    fn the_writer_streams_what_the_tree_encodes() {
        // The same document written token by token, in both forms, with
        // negative and non-finite numbers and empty containers.
        let tree = Wire::obj(vec![
            ("delta", Wire::from(-3i64)),
            ("rate", Wire::F64(f64::INFINITY)),
            (
                "rows",
                Wire::Arr(vec![Wire::obj(vec![]), Wire::Arr(vec![])]),
            ),
            ("name \"q\"", Wire::from("t\u{1}")),
        ]);
        for pretty in [false, true] {
            let mut out = String::new();
            let mut doc = if pretty {
                Writer::pretty(&mut out)
            } else {
                Writer::compact(&mut out)
            };
            doc.begin_object().key("delta").i64(-3).key("rate");
            doc.f64(f64::INFINITY).key("rows").begin_array();
            doc.begin_object().end_object().begin_array().end_array();
            doc.end_array().key("name \"q\"").str("t\u{1}").end_object();
            let expected = if pretty {
                tree.encode_pretty()
            } else {
                tree.encode()
            };
            assert_eq!(out, expected);
        }
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
            "{\"a\":1,}",
            "{,}",
            "[,1]",
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
            let mut skipped = Reader::new(bad.as_bytes());
            let skips = skipped.skip().and_then(|()| skipped.finish());
            assert!(skips.is_err(), "{bad:?} must not be skipped over");
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
        let text = r#"{"a":1,"b":2,"a":3}"#;
        let twice = Wire::decode(text).unwrap();
        assert_eq!(twice.get("a"), Some(&Wire::U64(1)));
        assert_eq!(twice.field("b"), Ok(&Wire::U64(2)));
        let err = twice.field_as("a", Wire::as_u64).unwrap_err();
        assert!(err.contains("duplicate") && err.contains("\"a\""), "{err}");
        let err = Reader::new(text.as_bytes())
            .object(&["a", "b"], |input, _| input.u64().map(drop))
            .unwrap_err();
        assert!(err.contains("duplicate") && err.contains("\"a\""), "{err}");
    }

    #[test]
    fn the_object_reader_takes_members_in_any_order_and_skips_the_unknown() {
        let read = |text: &str| {
            let mut input = Reader::new(text.as_bytes());
            let (mut a, mut b) = (0, false);
            input.object(&["a", "b"], |input, name| {
                match name {
                    "a" => a = input.u64()?,
                    _ => b = input.bool()?,
                }
                Ok(())
            })?;
            input.finish().map(|()| (a, b))
        };
        assert_eq!(read(r#"{"a":1,"b":true}"#), Ok((1, true)));
        assert_eq!(
            read(r#" { "x" : [{"y":"é"}], "b":true, "a":7 } "#),
            Ok((7, true))
        );
        let missing = read(r#"{"a":1}"#).unwrap_err();
        assert!(missing.contains("missing") && missing.contains("\"b\""));
        let mistyped = read(r#"{"a":1,"b":2}"#).unwrap_err();
        assert!(mistyped.starts_with("b: "), "{mistyped}");
        assert!(
            read(r#"{"a":1,"b":true,"x":[}"#).is_err(),
            "skipped, checked"
        );
        assert!(read(r#"{"a":1,"b":true} x"#).is_err());
    }

    #[test]
    fn arrays_count_their_items_and_names_borrow_the_input() {
        let mut input = Reader::new(br#"[[], [1, 2], {"plain": 0, "esc\"aped": 1}]"#);
        let mut names = Vec::new();
        let count = input
            .array(|input, position| match position {
                0 => input.array(|_, _| Err("empty".to_owned())).map(drop),
                1 => input.array(|input, _| input.u64().map(drop)).map(drop),
                _ => input.members(|input, name| {
                    names.push(name);
                    input.skip()
                }),
            })
            .unwrap();
        assert_eq!(count, 3);
        assert!(matches!(names[0], Cow::Borrowed("plain")));
        assert!(matches!(&names[1], Cow::Owned(name) if name == "esc\"aped"));
        input.finish().unwrap();
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // At the parent this aborted the process (SIGABRT, "stack
        // overflow"): no `catch_unwind` and no quarantine path sees that.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            let err = Wire::decode(open.repeat(100_000)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
            let err = Reader::new(open.repeat(100_000).as_bytes())
                .skip()
                .unwrap_err();
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
        let parse = |bytes: &[u8]| Reader::new(bytes).str().map(Cow::into_owned);
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
}
