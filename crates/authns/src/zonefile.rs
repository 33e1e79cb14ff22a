//! BIND-style zone-file text format: parsing and serialization.
//!
//! The paper's authoritative server loaded its five-million-subdomain
//! clusters from generated zone files. This module provides the text
//! format those files use — enough of RFC 1035 §5 master-file syntax to
//! round-trip every record type the measurement emits:
//!
//! ```text
//! $ORIGIN ucfsealresearch.net.
//! $TTL 60
//! @                 3600 IN SOA ns1 hostmaster 2018042601 7200 900 1209600 300
//! @                 3600 IN NS  ns1
//! ns1               3600 IN A   104.238.191.60
//! or000.0000000           IN A  45.76.31.7
//! or000.0000001           IN A  45.77.100.2
//! ```
//!
//! Supported: `$ORIGIN`, `$TTL`, `@`, relative and absolute names,
//! comments (`;`), and A / NS / CNAME / SOA / PTR / MX / TXT / AAAA
//! records, with names in printable ASCII (no `\DDD` or `\X` escapes).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use orscope_dns_wire::rdata::Soa;
use orscope_dns_wire::{Name, RData, Record, RecordClass};

use crate::zone::Zone;

/// An error with the line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneFileError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ZoneFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "zone file line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ZoneFileError {}

fn err(line: usize, reason: impl Into<String>) -> ZoneFileError {
    ZoneFileError {
        line,
        reason: reason.into(),
    }
}

/// Parses a zone file into a [`Zone`].
///
/// The file must contain a `$ORIGIN`, exactly one SOA, and at least one
/// NS record, as BIND requires, and no owner outside the last `$ORIGIN`.
///
/// # Errors
///
/// Returns the first syntax or semantic error with its line number.
///
/// # Example
///
/// ```
/// use orscope_authns::zonefile;
///
/// let text = "\
/// $ORIGIN example.net.
/// $TTL 300
/// @    IN SOA ns1 hostmaster 1 7200 900 1209600 300
/// @    IN NS ns1
/// ns1  IN A  192.0.2.53
/// www  IN A  192.0.2.80
/// ";
/// let zone = zonefile::parse(text)?;
/// assert_eq!(zone.origin().to_string(), "example.net");
/// assert_eq!(zone.record_count(), 2); // ns1 + www (SOA/NS are built in)
/// # Ok::<(), orscope_authns::zonefile::ZoneFileError>(())
/// ```
pub fn parse(text: &str) -> Result<Zone, ZoneFileError> {
    let mut origin: Option<Name> = None;
    let mut default_ttl: u32 = 3600;
    let mut soa: Option<(Name, u32, Box<Soa>)> = None;
    let mut ns: Vec<(usize, Name, u32, Name)> = Vec::new();
    let mut records: Vec<(usize, Record)> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim_end();
        if line.trim().is_empty() {
            continue;
        }
        let mut tokens = tokenize(line);
        if tokens.is_empty() {
            continue;
        }
        // Directives.
        if tokens[0] == "$ORIGIN" {
            let name = tokens
                .get(1)
                .ok_or_else(|| err(lineno, "$ORIGIN needs a name"))?;
            origin = Some(parse_name(name).map_err(|e| err(lineno, format!("bad origin: {e}")))?);
            continue;
        }
        if tokens[0] == "$TTL" {
            default_ttl = tokens
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| err(lineno, "$TTL needs a number"))?;
            continue;
        }
        let origin_name = origin
            .clone()
            .ok_or_else(|| err(lineno, "record before $ORIGIN"))?;
        // Owner name.
        let owner_token = tokens.remove(0);
        let owner = resolve_name(&owner_token, &origin_name)
            .map_err(|e| err(lineno, format!("bad owner name: {e}")))?;
        // Optional TTL, optional class, then type.
        let mut ttl = default_ttl;
        if let Some(t) = tokens.first() {
            if let Ok(parsed) = t.parse::<u32>() {
                ttl = parsed;
                tokens.remove(0);
            }
        }
        if tokens.first().map(|t| t.as_str()) == Some("IN") {
            tokens.remove(0);
        }
        let rtype = tokens
            .first()
            .cloned()
            .ok_or_else(|| err(lineno, "missing record type"))?;
        tokens.remove(0);
        let rdata =
            parse_rdata(&rtype, &tokens, &origin_name).map_err(|reason| err(lineno, reason))?;
        match rdata {
            RData::Soa(s) => {
                if soa.is_some() {
                    return Err(err(lineno, "duplicate SOA"));
                }
                soa = Some((owner, ttl, s));
            }
            RData::Ns(target) => ns.push((lineno, owner, ttl, target)),
            other => records.push((lineno, Record::new(owner, RecordClass::In, ttl, other))),
        }
    }

    let origin = origin.ok_or_else(|| err(0, "no $ORIGIN in file"))?;
    let (soa_owner, _soa_ttl, soa) = soa.ok_or_else(|| err(0, "no SOA record"))?;
    if soa_owner != origin {
        return Err(err(0, "SOA owner is not the zone origin"));
    }
    if ns.is_empty() {
        return Err(err(0, "no NS record"));
    }
    let owners = ns.iter().map(|(line, owner, ..)| (line, owner));
    let owners = owners.chain(records.iter().map(|(line, record)| (line, record.name())));
    for (&line, owner) in owners {
        if !owner.is_subdomain_of(&origin) {
            return Err(err(line, format!("owner {owner} is outside zone {origin}")));
        }
    }
    let mut zone = Zone::new_with_soa(origin, *soa);
    for (_, owner, ttl, target) in ns {
        zone.add_ns(owner, ttl, target);
    }
    zone.set_default_ttl(default_ttl);
    for (_, record) in records {
        zone.add_record(record);
    }
    Ok(zone)
}

/// Serializes a [`Zone`] to master-file text that [`parse`] round-trips.
pub fn serialize(zone: &Zone) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let origin = zone.origin();
    let _ = writeln!(out, "$ORIGIN {origin}.");
    let soa = zone.soa();
    if let RData::Soa(s) = soa.rdata() {
        let _ = writeln!(
            out,
            "@ {} IN SOA {}. {}. {} {} {} {} {}",
            soa.ttl(),
            s.mname,
            s.rname,
            s.serial,
            s.refresh,
            s.retry,
            s.expire,
            s.minimum
        );
    }
    for rec in zone.ns_records() {
        if let RData::Ns(target) = rec.rdata() {
            let _ = writeln!(out, "{}. {} IN NS {}.", rec.name(), rec.ttl(), target);
        }
    }
    for rec in zone.records() {
        let _ = writeln!(
            out,
            "{}. {} IN {} {}",
            rec.name(),
            rec.ttl(),
            rec.rtype(),
            rdata_text(rec.rdata())
        );
    }
    out
}

/// Presentation of rdata with absolute names (trailing dots).
fn rdata_text(rdata: &RData) -> String {
    match rdata {
        RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => format!("{n}."),
        RData::Mx {
            preference,
            exchange,
        } => format!("{preference} {exchange}."),
        RData::Txt(segments) => segments
            .iter()
            .map(|s| format!("\"{}\"", String::from_utf8_lossy(s)))
            .collect::<Vec<_>>()
            .join(" "),
        other => other.to_string(),
    }
}

/// Strips a `;` comment (TXT quoting is respected).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ';' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a line into tokens, keeping quoted strings intact.
fn tokenize(line: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in line.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            c if c.is_whitespace() && !in_quotes => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Parses a name [`serialize`] writes back as it was read: no escapes.
fn parse_name(text: &str) -> Result<Name, String> {
    if let Some(byte) = text.bytes().find(|&b| b == b'\\' || !b.is_ascii_graphic()) {
        return Err(format!("byte {byte:#04x} in name {text:?}"));
    }
    text.parse().map_err(|e| format!("{e}"))
}

/// Resolves `@`, relative, and absolute (dot-terminated) names.
fn resolve_name(token: &str, origin: &Name) -> Result<Name, String> {
    if token == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = token.strip_suffix('.') {
        return parse_name(absolute);
    }
    // Relative: append the origin.
    let relative = parse_name(token)?;
    let mut labels: Vec<Vec<u8>> = relative.labels().map(|l| l.to_vec()).collect();
    labels.extend(origin.labels().map(|l| l.to_vec()));
    Name::from_labels(labels).map_err(|e| format!("{e}"))
}

/// Parses the rdata tokens for `rtype`.
fn parse_rdata(rtype: &str, tokens: &[String], origin: &Name) -> Result<RData, String> {
    let need = |i: usize| -> Result<&String, String> {
        tokens
            .get(i)
            .ok_or_else(|| format!("{rtype} rdata too short"))
    };
    match rtype {
        "A" => Ok(RData::A(
            Ipv4Addr::from_str(need(0)?).map_err(|e| e.to_string())?,
        )),
        "AAAA" => Ok(RData::Aaaa(
            Ipv6Addr::from_str(need(0)?).map_err(|e| e.to_string())?,
        )),
        "NS" => Ok(RData::Ns(resolve_name(need(0)?, origin)?)),
        "CNAME" => Ok(RData::Cname(resolve_name(need(0)?, origin)?)),
        "PTR" => Ok(RData::Ptr(resolve_name(need(0)?, origin)?)),
        "MX" => Ok(RData::Mx {
            preference: need(0)?.parse().map_err(|_| "bad MX preference")?,
            exchange: resolve_name(need(1)?, origin)?,
        }),
        "SOA" => Ok(RData::Soa(Box::new(Soa {
            mname: resolve_name(need(0)?, origin)?,
            rname: resolve_name(need(1)?, origin)?,
            serial: need(2)?.parse().map_err(|_| "bad SOA serial")?,
            refresh: need(3)?.parse().map_err(|_| "bad SOA refresh")?,
            retry: need(4)?.parse().map_err(|_| "bad SOA retry")?,
            expire: need(5)?.parse().map_err(|_| "bad SOA expire")?,
            minimum: need(6)?.parse().map_err(|_| "bad SOA minimum")?,
        }))),
        "TXT" => {
            if tokens.is_empty() {
                return Err("TXT rdata too short".into());
            }
            let segments = tokens
                .iter()
                .map(|t| {
                    t.strip_prefix('"')
                        .and_then(|t| t.strip_suffix('"'))
                        .map(|t| t.as_bytes().to_vec())
                        .ok_or_else(|| "TXT segment must be quoted".to_owned())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RData::Txt(segments))
        }
        other => Err(format!("unsupported record type {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneAnswer;
    use orscope_dns_wire::RecordType;

    const SAMPLE: &str = r#"
; generated cluster fragment
$ORIGIN ucfsealresearch.net.
$TTL 60
@                3600 IN SOA ns1 hostmaster 2018042601 7200 900 1209600 300
@                3600 IN NS  ns1
ns1              3600 IN A   104.238.191.60
@                     IN TXT "v=measurement; k=1"
or000.0000000         IN A   45.76.31.7
or000.0000001         IN A   45.77.100.2
www                   IN CNAME or000.0000000
mail                  IN MX  10 mx.example.com.
host6                 IN AAAA 2001:db8::7
"#;

    #[test]
    fn parses_sample_zone() {
        let zone = parse(SAMPLE).unwrap();
        assert_eq!(zone.origin().to_string(), "ucfsealresearch.net");
        match zone.lookup(
            &"or000.0000001.ucfsealresearch.net".parse().unwrap(),
            RecordType::A,
        ) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs[0].rdata().as_a(), Some(Ipv4Addr::new(45, 77, 100, 2)));
                assert_eq!(recs[0].ttl(), 60, "default TTL applied");
            }
            other => panic!("{other:?}"),
        }
        match zone.lookup(
            &"www.ucfsealresearch.net".parse().unwrap(),
            RecordType::Cname,
        ) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(
                    recs[0].rdata().to_string(),
                    "or000.0000000.ucfsealresearch.net"
                );
            }
            other => panic!("{other:?}"),
        }
        // Absolute name in MX stayed absolute.
        match zone.lookup(&"mail.ucfsealresearch.net".parse().unwrap(), RecordType::Mx) {
            ZoneAnswer::Answer(recs) => {
                assert!(recs[0].rdata().to_string().contains("mx.example.com"))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_serialize() {
        let zone = parse(SAMPLE).unwrap();
        let text = serialize(&zone);
        let back = parse(&text).unwrap();
        assert_eq!(back.origin(), zone.origin());
        assert_eq!(back.record_count(), zone.record_count());
        // Spot-check a record surviving the roundtrip.
        for qname in [
            "or000.0000000.ucfsealresearch.net",
            "host6.ucfsealresearch.net",
        ] {
            let q: Name = qname.parse().unwrap();
            let a = format!("{:?}", zone.lookup(&q, RecordType::Any));
            let b = format!("{:?}", back.lookup(&q, RecordType::Any));
            assert_eq!(a, b, "{qname}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let missing_origin = "www IN A 1.2.3.4\n";
        assert_eq!(parse(missing_origin).unwrap_err().line, 1);

        let bad_a = "$ORIGIN x.net.\n@ IN SOA ns1 h 1 2 3 4 5\n@ IN NS ns1\nbad IN A not-an-ip\n";
        let e = parse(bad_a).unwrap_err();
        assert_eq!(e.line, 4);

        let dup_soa = "$ORIGIN x.net.\n@ IN SOA ns1 h 1 2 3 4 5\n@ IN SOA ns1 h 1 2 3 4 5\n";
        assert!(parse(dup_soa).unwrap_err().reason.contains("duplicate SOA"));

        let no_ns = "$ORIGIN x.net.\n@ IN SOA ns1 h 1 2 3 4 5\n";
        assert!(parse(no_ns).unwrap_err().reason.contains("no NS"));
    }

    #[test]
    fn comments_and_quotes() {
        let text = "$ORIGIN x.net.\n@ IN SOA ns1 h 1 2 3 4 5 ; the SOA\n@ IN NS ns1\nt IN TXT \"semi;colon\" ; trailing\n";
        let zone = parse(text).unwrap();
        match zone.lookup(&"t.x.net".parse().unwrap(), RecordType::Txt) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs[0].rdata().to_string(), "\"semi;colon\"");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generated_cluster_fragment_parses() {
        // Generate a small cluster the way the measurement would.
        use crate::scheme::{ground_truth, ProbeLabel};
        let mut text = String::from(
            "$ORIGIN ucfsealresearch.net.\n$TTL 60\n@ IN SOA ns1 hostmaster 1 7200 900 1209600 300\n@ IN NS ns1\n",
        );
        for seq in 0..100 {
            let label = ProbeLabel::new(0, seq);
            text.push_str(&format!("{label} IN A {}\n", ground_truth(label)));
        }
        let zone = parse(&text).unwrap();
        assert_eq!(zone.record_count(), 100);
        let q = ProbeLabel::new(0, 42).qname(&"ucfsealresearch.net".parse().unwrap());
        match zone.lookup(&q, RecordType::A) {
            ZoneAnswer::Answer(recs) => assert_eq!(
                recs[0].rdata().as_a(),
                Some(ground_truth(ProbeLabel::new(0, 42)))
            ),
            other => panic!("{other:?}"),
        }
    }
}
