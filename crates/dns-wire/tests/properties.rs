//! Property-based tests: arbitrary messages survive encode/decode, and the
//! decoder never panics on arbitrary bytes.

use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};

use orscope_dns_wire::rdata::Soa;
use orscope_dns_wire::{
    Header, Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType,
};

/// A strategy producing valid DNS labels (1..=20 alnum/hyphen bytes).
fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9]([a-zA-Z0-9-]{0,18}[a-zA-Z0-9])?").unwrap()
}

/// A strategy producing valid names of 0..=5 labels.
fn name() -> impl Strategy<Value = Name> {
    prop::collection::vec(label(), 0..=5)
        .prop_map(|labels| Name::from_labels(labels.iter().map(String::as_bytes)).unwrap())
}

/// A strategy producing labels at the RFC 1035 maximum of 63 octets.
fn max_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-zA-Z0-9][a-zA-Z0-9-]{61}[a-zA-Z0-9]").unwrap()
}

/// A strategy producing names built from maximum-length labels (1..=3 of
/// them stays under the 255-octet name limit: 3 * 64 + 1 = 193).
fn long_name() -> impl Strategy<Value = Name> {
    prop::collection::vec(max_label(), 1..=3)
        .prop_map(|labels| Name::from_labels(labels.iter().map(String::as_bytes)).unwrap())
}

/// A strategy over the typed rdata variants.
fn rdata() -> impl Strategy<Value = RData> {
    prop_oneof![
        any::<u32>().prop_map(|v| RData::A(Ipv4Addr::from(v))),
        name().prop_map(RData::Ns),
        name().prop_map(RData::Cname),
        name().prop_map(RData::Ptr),
        (
            name(),
            name(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(mname, rname, serial, refresh, retry, expire, minimum)| {
                RData::Soa(Box::new(Soa {
                    mname,
                    rname,
                    serial,
                    refresh,
                    retry,
                    expire,
                    minimum,
                }))
            }),
        (any::<u16>(), name()).prop_map(|(preference, exchange)| RData::Mx {
            preference,
            exchange
        }),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..100), 0..4)
            .prop_map(RData::Txt),
        any::<u128>().prop_map(|v| RData::Aaaa(Ipv6Addr::from(v))),
        (0u16..=65535, prop::collection::vec(any::<u8>(), 0..64)).prop_map(|(rtype, data)| {
            // Avoid colliding with the typed codes, which would decode as
            // typed rdata rather than Unknown.
            let rtype = match rtype {
                1 | 2 | 5 | 6 | 12 | 15 | 16 | 28 | 41 | 255 => 77,
                t => t,
            };
            RData::Unknown { rtype, data }
        }),
    ]
}

fn record() -> impl Strategy<Value = Record> {
    (name(), any::<u32>(), rdata())
        .prop_map(|(owner, ttl, rdata)| Record::in_class(owner, ttl, rdata))
}

fn question() -> impl Strategy<Value = Question> {
    (name(), any::<u16>(), prop_oneof![Just(1u16), Just(255u16)])
        .prop_map(|(n, t, c)| Question::new(n, RecordType::from_u16(t), RecordClass::from_u16(c)))
}

fn message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        prop::collection::vec(question(), 0..2),
        prop::collection::vec(record(), 0..4),
        prop::collection::vec(record(), 0..2),
        prop::collection::vec(record(), 0..2),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..16,
    )
        .prop_map(|(id, qs, ans, auth, add, ra, aa, tc, rcode)| {
            let mut b = Message::builder()
                .id(id)
                .recursion_available(ra)
                .authoritative(aa)
                .rcode(Rcode::from_u8(rcode));
            for q in qs {
                b = b.question(q);
            }
            for r in ans {
                b = b.answer(r);
            }
            for r in auth {
                b = b.authority(r);
            }
            for r in add {
                b = b.additional(r);
            }
            let mut m = b.build();
            m.header_mut().set_truncated(tc).set_response(true);
            m
        })
}

proptest! {
    /// Any structurally valid message survives an encode/decode roundtrip.
    #[test]
    fn message_roundtrip(msg in message()) {
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    /// Decoding a *valid* prefix with appended garbage is rejected, not
    /// silently accepted.
    #[test]
    fn trailing_garbage_rejected(msg in message(), garbage in prop::collection::vec(any::<u8>(), 1..16)) {
        let mut wire = msg.encode().unwrap();
        wire.extend(&garbage);
        prop_assert!(Message::decode(&wire).is_err());
    }

    /// Re-encoding a decoded message is stable (canonical after one trip).
    #[test]
    fn reencode_is_stable(msg in message()) {
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        let wire2 = back.encode().unwrap();
        prop_assert_eq!(wire, wire2);
    }

    /// Names roundtrip through display+parse when labels are plain ASCII.
    #[test]
    fn name_display_parse_roundtrip(n in name()) {
        let parsed: Name = n.to_string().parse().unwrap();
        prop_assert_eq!(parsed, n);
    }

    /// Qnames built from maximum-length (63-octet) labels roundtrip
    /// through a full message encode/decode.
    #[test]
    fn max_length_label_qname_roundtrip(n in long_name(), id in any::<u16>()) {
        let msg = Message::query(id, Question::a(n));
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Max-length labels survive display+parse as well as the wire.
    #[test]
    fn max_length_label_display_parse_roundtrip(n in long_name()) {
        let parsed: Name = n.to_string().parse().unwrap();
        prop_assert_eq!(parsed, n);
    }

    /// Every rcode value roundtrips through its wire nibble, and through
    /// a full message header.
    #[test]
    fn rcode_roundtrip(raw in 0u8..16) {
        let rcode = Rcode::from_u8(raw);
        prop_assert_eq!(rcode.to_u8(), raw);
        let msg = {
            let mut m = Message::builder().id(1).rcode(rcode).build();
            m.header_mut().set_response(true);
            m
        };
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(back.header().rcode(), rcode);
    }

    /// Header bytes roundtrip for every flag/rcode combination.
    #[test]
    fn header_roundtrip(id in any::<u16>(), flags in any::<u16>(), counts in any::<[u16; 4]>()) {
        let mut raw = Vec::new();
        raw.extend(id.to_be_bytes());
        raw.extend(flags.to_be_bytes());
        for c in counts {
            raw.extend(c.to_be_bytes());
        }
        let mut r = orscope_dns_wire::wire::Reader::new(&raw);
        let h = Header::decode(&mut r).unwrap();
        let mut w = orscope_dns_wire::wire::Writer::new();
        h.encode(&mut w);
        prop_assert_eq!(w.finish().unwrap(), raw);
    }
}

/// A name at exactly the 255-octet wire maximum (63+63+63+61 labels:
/// 64 + 64 + 64 + 62 + 1 root = 255) roundtrips; one octet more is
/// rejected at construction.
#[test]
fn name_at_the_255_octet_limit_roundtrips() {
    let labels = [
        "a".repeat(63),
        "b".repeat(63),
        "c".repeat(63),
        "d".repeat(61),
    ];
    let name = Name::from_labels(labels.iter().map(String::as_bytes)).expect("255 octets is legal");
    let msg = Message::query(9, Question::a(name.clone()));
    let wire = msg.encode().unwrap();
    let back = Message::decode(&wire).unwrap();
    assert_eq!(back.first_question().unwrap().qname(), &name);

    let too_long = [
        "a".repeat(63),
        "b".repeat(63),
        "c".repeat(63),
        "d".repeat(62),
    ];
    assert!(
        Name::from_labels(too_long.iter().map(String::as_bytes)).is_err(),
        "256 octets must be rejected"
    );
}
