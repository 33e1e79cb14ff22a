//! Zone data and RFC 1035 lookup semantics.

use std::collections::BTreeMap;

use orscope_dns_wire::rdata::Soa;
use orscope_dns_wire::{Name, RData, Record, RecordType};

/// The result of a zone lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// The name exists and has records of the requested type.
    Answer(Vec<Record>),
    /// The name exists but has no records of the requested type;
    /// the SOA goes in the authority section for negative caching.
    NoData(Record),
    /// The name does not exist in the zone (rcode NXDomain + SOA).
    NxDomain(Record),
    /// The name is not within this zone at all.
    OutOfZone,
}

/// The TTL of the records the `add_*` helpers build.
const DEFAULT_TTL: u32 = 60;

/// An authoritative zone: origin, SOA, one NS record, and explicit records.
///
/// # Example
///
/// ```
/// use orscope_authns::{Zone, ZoneAnswer};
/// use orscope_dns_wire::{Name, RData, RecordType};
/// use std::net::Ipv4Addr;
///
/// let origin: Name = "example.net".parse()?;
/// let mut zone = Zone::new(origin.clone(), "ns1.example.net".parse()?);
/// zone.add_a("www.example.net".parse()?, Ipv4Addr::new(1, 2, 3, 4));
/// match zone.lookup(&"www.example.net".parse()?, RecordType::A) {
///     ZoneAnswer::Answer(recs) => assert_eq!(recs.len(), 1),
///     other => panic!("{other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Record,
    ns: Record,
    /// Records keyed by owner name; values grouped in insertion order.
    records: BTreeMap<Name, Vec<Record>>,
}

impl Zone {
    /// Creates a zone with a standard SOA and a single NS record.
    pub fn new(origin: Name, primary_ns: Name) -> Self {
        let soa = Record::in_class(
            origin.clone(),
            3600,
            RData::Soa(Box::new(Soa {
                mname: primary_ns.clone(),
                rname: origin
                    .prepend("hostmaster")
                    .unwrap_or_else(|_| origin.clone()),
                serial: 2018042601, // zone built for the 2018/04/26 scan
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            })),
        );
        let ns = Record::in_class(origin.clone(), 3600, RData::Ns(primary_ns));
        Self {
            origin,
            soa,
            ns,
            records: BTreeMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The zone's SOA record.
    pub fn soa(&self) -> &Record {
        &self.soa
    }

    /// Adds an arbitrary record.
    ///
    /// # Panics
    ///
    /// Panics if the owner name is outside the zone.
    pub fn add_record(&mut self, record: Record) -> &mut Self {
        assert!(
            record.name().is_subdomain_of(&self.origin),
            "{} is outside zone {}",
            record.name(),
            self.origin
        );
        self.records
            .entry(record.name().clone())
            .or_default()
            .push(record);
        self
    }

    /// Adds an A record with the default TTL.
    pub fn add_a(&mut self, name: Name, addr: std::net::Ipv4Addr) -> &mut Self {
        self.add_record(Record::in_class(name, DEFAULT_TTL, RData::A(addr)))
    }

    /// Adds a TXT record with the default TTL (apex TXT bulk is what makes
    /// ANY queries amplify).
    pub fn add_txt(&mut self, name: Name, text: &str) -> &mut Self {
        self.add_record(Record::in_class(
            name,
            DEFAULT_TTL,
            RData::Txt(vec![text.as_bytes().to_vec()]),
        ))
    }

    /// Looks up `qname`/`qtype` with authoritative semantics.
    pub fn lookup(&self, qname: &Name, qtype: RecordType) -> ZoneAnswer {
        if !qname.is_subdomain_of(&self.origin) {
            return ZoneAnswer::OutOfZone;
        }
        // Apex built-ins: SOA and NS.
        let mut found: Vec<Record> = Vec::new();
        let at_apex = qname == &self.origin;
        if at_apex {
            if matches!(qtype, RecordType::Soa | RecordType::Any) {
                found.push(self.soa.clone());
            }
            if matches!(qtype, RecordType::Ns | RecordType::Any) {
                found.push(self.ns.clone());
            }
        }
        let explicit = self.records.get(qname);
        if let Some(records) = explicit {
            for rec in records {
                if qtype == RecordType::Any || rec.rtype() == qtype {
                    found.push(rec.clone());
                }
            }
        }
        if !found.is_empty() {
            return ZoneAnswer::Answer(found);
        }
        // RFC 1034 section 4.3.2 step 3a: a CNAME at the node answers
        // queries for any other type with the alias record itself.
        if qtype != RecordType::Cname {
            if let Some(records) = explicit {
                if let Some(cname) = records.iter().find(|r| r.rtype() == RecordType::Cname) {
                    return ZoneAnswer::Answer(vec![cname.clone()]);
                }
            }
        }
        if at_apex || explicit.is_some() {
            return ZoneAnswer::NoData(self.soa.clone());
        }
        ZoneAnswer::NxDomain(self.soa.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn test_zone() -> Zone {
        let mut z = Zone::new(name("ucfsealresearch.net"), name("ns1.ucfsealresearch.net"));
        z.add_a(name("ns1.ucfsealresearch.net"), Ipv4Addr::new(45, 77, 1, 1));
        z.add_a(name("www.ucfsealresearch.net"), Ipv4Addr::new(45, 77, 1, 2));
        z.add_txt(name("ucfsealresearch.net"), "v=spf1 -all");
        z
    }

    #[test]
    fn answer_for_existing_name() {
        let z = test_zone();
        match z.lookup(&name("www.ucfsealresearch.net"), RecordType::A) {
            ZoneAnswer::Answer(recs) => {
                assert_eq!(recs.len(), 1);
                assert_eq!(recs[0].rdata().as_a(), Some(Ipv4Addr::new(45, 77, 1, 2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nodata_for_wrong_type() {
        let z = test_zone();
        match z.lookup(&name("www.ucfsealresearch.net"), RecordType::Mx) {
            ZoneAnswer::NoData(soa) => assert_eq!(soa.rtype(), RecordType::Soa),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = test_zone();
        match z.lookup(&name("missing.ucfsealresearch.net"), RecordType::A) {
            ZoneAnswer::NxDomain(soa) => assert_eq!(soa.rtype(), RecordType::Soa),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_zone() {
        let z = test_zone();
        assert_eq!(
            z.lookup(&name("example.com"), RecordType::A),
            ZoneAnswer::OutOfZone
        );
    }

    #[test]
    fn apex_soa_and_ns() {
        let z = test_zone();
        match z.lookup(&name("ucfsealresearch.net"), RecordType::Soa) {
            ZoneAnswer::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        match z.lookup(&name("ucfsealresearch.net"), RecordType::Ns) {
            ZoneAnswer::Answer(recs) => assert_eq!(recs.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn any_collects_everything_at_apex() {
        let z = test_zone();
        match z.lookup(&name("ucfsealresearch.net"), RecordType::Any) {
            ZoneAnswer::Answer(recs) => {
                // SOA + NS + TXT.
                assert_eq!(recs.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn adding_foreign_record_panics() {
        let mut z = test_zone();
        z.add_a(name("www.example.com"), Ipv4Addr::LOCALHOST);
    }

    #[test]
    fn case_insensitive_lookup() {
        let z = test_zone();
        assert!(matches!(
            z.lookup(&name("WWW.UCFSEALRESEARCH.NET"), RecordType::A),
            ZoneAnswer::Answer(_)
        ));
    }
}
