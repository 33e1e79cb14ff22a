//! The checkpoint wire codec: a small, hand-written JSON subset.
//!
//! Checkpoint generations are durable artifacts with an explicit,
//! versioned schema — the one part of the observatory whose byte layout
//! must stay stable across refactors, because an operator's state dir
//! outlives any single build. Hand-writing the codec (in the same
//! spirit as the hand-rolled HTTP surface) keeps that schema visible in
//! one place, decoupled from `#[derive]` evolution, and keeps the
//! corruption-recovery path free of any dependency's parsing behavior:
//! every accepted byte is accepted by code in this module.
//!
//! The subset is exactly what checkpoints need: objects with ordered
//! keys (deterministic bytes), arrays, strings, booleans, `null`,
//! unsigned integers, and finite floats. Floats round-trip exactly:
//! they are written with Rust's shortest-representation `Display` and
//! read back with `str::parse::<f64>`, which recovers the identical
//! bit pattern.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One value of the checkpoint wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum Wire {
    /// `null` — used for absent optionals.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counts, seeds, epochs).
    U64(u64),
    /// A finite float (scales, rates, percentages).
    F64(f64),
    /// A string (class names, map keys).
    Str(String),
    /// An ordered array.
    Arr(Vec<Wire>),
    /// An object; key order is preserved, so encoding is deterministic.
    Obj(Vec<(String, Wire)>),
}

impl Wire {
    /// Builds an object from `(key, value)` pairs.
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
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Wire::Null => out.push_str("null"),
            Wire::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Wire::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Wire::F64(x) => {
                // Non-finite floats have no JSON form; encode as null
                // so the value fails decoding loudly instead of writing
                // a file no parser accepts.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Wire::Str(s) => write_string(out, s),
            Wire::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Wire::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (the whole input must be consumed).
    ///
    /// # Errors
    ///
    /// A description of the first syntax error.
    pub fn decode(text: &str) -> Result<Wire, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    // ---- typed accessors (decoding helpers) ----

    /// The value of field `name`.
    ///
    /// # Errors
    ///
    /// If `self` is not an object or the field is missing.
    pub fn field(&self, name: &str) -> Result<&Wire, String> {
        match self {
            Wire::Obj(fields) => fields
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value)
                .ok_or_else(|| format!("missing field {name:?}")),
            _ => Err(format!("expected object around field {name:?}")),
        }
    }

    /// This value as a `u64`.
    ///
    /// # Errors
    ///
    /// If it is not an unsigned integer.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Wire::U64(n) => Ok(*n),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// This value as an `f64` (integers widen).
    ///
    /// # Errors
    ///
    /// If it is not numeric.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Wire::U64(n) => Ok(*n as f64),
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
    /// If it is not an object of unsigned integers.
    pub fn as_count_map(&self) -> Result<BTreeMap<String, u64>, String> {
        match self {
            Wire::Obj(fields) => fields
                .iter()
                .map(|(key, value)| Ok((key.clone(), value.as_u64()?)))
                .collect(),
            other => Err(format!("expected object, got {other:?}")),
        }
    }
}

/// Encodes an optional unsigned integer (`None` -> `null`).
pub fn opt_u64(value: Option<u64>) -> Wire {
    value.map_or(Wire::Null, Wire::U64)
}

/// Encodes a string-to-count map with deterministic (sorted) key order.
pub fn count_map(map: &BTreeMap<String, u64>) -> Wire {
    Wire::Obj(
        map.iter()
            .map(|(key, value)| (key.clone(), Wire::U64(*value)))
            .collect(),
    )
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Wire, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
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
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number".to_owned())?;
    if text.is_empty() {
        return Err(format!("expected value at offset {start}"));
    }
    // Unsigned integers first (exact for the full u64 range: seeds use
    // all 64 bits), floats as the fallback.
    if let Ok(n) = text.parse::<u64>() {
        return Ok(Wire::U64(n));
    }
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(Wire::F64(x)),
        _ => Err(format!("bad number {text:?} at offset {start}")),
    }
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_owned()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Everything up to the next quote or backslash is
                // literal text. Both are ASCII, which never occurs
                // inside a multi-byte scalar, so the run ends on a
                // scalar boundary; validating just the run, once, is
                // what keeps decoding linear in the document.
                let rest = &bytes[*pos..];
                let run = rest
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(rest.len());
                out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| "bad utf-8")?);
                *pos += run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Wire, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Wire::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
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

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Wire, String> {
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
        let value = parse_value(bytes, pos)?;
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
            (Wire::F64(0.25), "0.25"),
            (Wire::Str("a \"b\"\n\\".to_owned()), r#""a \"b\"\n\\""#),
        ] {
            let encoded = value.encode();
            assert_eq!(encoded, expected);
            assert_eq!(Wire::decode(&encoded).unwrap(), value);
        }
    }

    #[test]
    fn integral_floats_widen_back_exactly() {
        // 60000.0 encodes as "60000", decodes as U64, and as_f64
        // recovers the identical float.
        let encoded = Wire::F64(60_000.0).encode();
        assert_eq!(encoded, "60000");
        let decoded = Wire::decode(&encoded).unwrap();
        assert_eq!(decoded.as_f64().unwrap(), 60_000.0);
    }

    #[test]
    fn awkward_floats_roundtrip_bit_exact() {
        for x in [0.1, 2.0 / 3.0, 1e300, 5e-324, 123_456_789.987_654_32] {
            let decoded = Wire::decode(&Wire::F64(x).encode()).unwrap();
            assert_eq!(decoded.as_f64().unwrap().to_bits(), x.to_bits());
        }
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
        assert_eq!(decoded.field("flag").unwrap().as_bool().unwrap(), false);
        assert!(decoded.field("absent").is_err());
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
        ] {
            assert!(Wire::decode(bad).is_err(), "{bad:?} must not parse");
        }
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
        let decoded = Wire::decode(&count_map(&map).encode()).unwrap();
        assert_eq!(decoded.as_count_map().unwrap(), map);
    }
}
