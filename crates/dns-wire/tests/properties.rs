//! Property-based tests: arbitrary messages survive encode/decode, and the
//! decoder never panics on arbitrary bytes.

use std::net::{Ipv4Addr, Ipv6Addr};

use orscope_check::{cases, Rng};
use orscope_dns_wire::rdata::Soa;
use orscope_dns_wire::{
    Header, Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType,
};

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
const ALNUM_HYPHEN: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";

/// A valid DNS label of `len` bytes: alphanumeric at both ends, hyphens
/// allowed inside.
fn label(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|at| match at == 0 || at == len - 1 {
            true => *rng.choice(ALNUM),
            false => *rng.choice(ALNUM_HYPHEN),
        })
        .collect()
}

/// A valid name of 0..=5 labels of 1..=20 bytes.
fn name(rng: &mut Rng) -> Name {
    let labels = rng.vec(0..=5, |rng| {
        let len = rng.range(1..=20);
        label(rng, len)
    });
    Name::from_labels(labels).unwrap()
}

/// A name built from labels at the RFC 1035 maximum of 63 octets (1..=3
/// of them stays under the 255-octet name limit: 3 * 64 + 1 = 193).
fn long_name(rng: &mut Rng) -> Name {
    Name::from_labels(rng.vec(1..=3, |rng| label(rng, 63))).unwrap()
}

/// One of the typed rdata variants.
fn rdata(rng: &mut Rng) -> RData {
    match rng.range(0..9) {
        0 => RData::A(Ipv4Addr::from(rng.range::<u32>(..))),
        1 => RData::Ns(name(rng)),
        2 => RData::Cname(name(rng)),
        3 => RData::Ptr(name(rng)),
        4 => RData::Soa(Box::new(Soa {
            mname: name(rng),
            rname: name(rng),
            serial: rng.range(..),
            refresh: rng.range(..),
            retry: rng.range(..),
            expire: rng.range(..),
            minimum: rng.range(..),
        })),
        5 => RData::Mx {
            preference: rng.range(..),
            exchange: name(rng),
        },
        6 => RData::Txt(rng.vec(0..4, |rng| rng.bytes(0..100))),
        7 => RData::Aaaa(Ipv6Addr::from(
            (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
        )),
        _ => RData::Unknown {
            // Avoid colliding with the typed codes, which would decode as
            // typed rdata rather than Unknown.
            rtype: match rng.range(..) {
                1 | 2 | 5 | 6 | 12 | 15 | 16 | 28 | 41 | 255 => 77,
                rtype => rtype,
            },
            data: rng.bytes(0..64),
        },
    }
}

fn record(rng: &mut Rng) -> Record {
    Record::in_class(name(rng), rng.range(..), rdata(rng))
}

fn question(rng: &mut Rng) -> Question {
    Question::new(
        name(rng),
        RecordType::from_u16(rng.range(..)),
        RecordClass::from_u16(*rng.choice(&[1, 255])),
    )
}

fn message(rng: &mut Rng) -> Message {
    let mut b = Message::builder()
        .id(rng.range(..))
        .recursion_available(rng.bool())
        .authoritative(rng.bool())
        .rcode(Rcode::from_u8(rng.range(0..16)));
    for _ in 0..rng.range(0..2) {
        b = b.question(question(rng));
    }
    for _ in 0..rng.range(0..4) {
        b = b.answer(record(rng));
    }
    for _ in 0..rng.range(0..2) {
        b = b.authority(record(rng));
    }
    for _ in 0..rng.range(0..2) {
        b = b.additional(record(rng));
    }
    let mut m = b.build();
    m.header_mut().set_truncated(rng.bool()).set_response(true);
    m
}

/// Any structurally valid message survives an encode/decode roundtrip.
#[test]
fn message_roundtrip() {
    cases(256, |rng| {
        let msg = message(rng);
        let wire = msg.encode().unwrap();
        assert_eq!(Message::decode(&wire).unwrap(), msg);
    });
}

/// Decoding arbitrary bytes never panics (it may error).
#[test]
fn decode_never_panics() {
    cases(256, |rng| {
        let _ = Message::decode(&rng.bytes(0..256));
    });
}

/// Decoding a *valid* prefix with appended garbage is rejected, not
/// silently accepted.
#[test]
fn trailing_garbage_rejected() {
    cases(256, |rng| {
        let mut wire = message(rng).encode().unwrap();
        wire.extend(rng.bytes(1..16));
        assert!(Message::decode(&wire).is_err());
    });
}

/// Re-encoding a decoded message is stable (canonical after one trip).
#[test]
fn reencode_is_stable() {
    cases(256, |rng| {
        let wire = message(rng).encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(wire, back.encode().unwrap());
    });
}

/// Names roundtrip through display+parse when labels are plain ASCII.
#[test]
fn name_display_parse_roundtrip() {
    cases(256, |rng| {
        let n = name(rng);
        let parsed: Name = n.to_string().parse().unwrap();
        assert_eq!(parsed, n);
    });
}

/// Qnames built from maximum-length (63-octet) labels roundtrip
/// through a full message encode/decode.
#[test]
fn max_length_label_qname_roundtrip() {
    cases(256, |rng| {
        let msg = Message::query(rng.range(..), Question::a(long_name(rng)));
        let wire = msg.encode().unwrap();
        assert_eq!(Message::decode(&wire).unwrap(), msg);
    });
}

/// Max-length labels survive display+parse as well as the wire.
#[test]
fn max_length_label_display_parse_roundtrip() {
    cases(256, |rng| {
        let n = long_name(rng);
        let parsed: Name = n.to_string().parse().unwrap();
        assert_eq!(parsed, n);
    });
}

/// Every rcode value roundtrips through its wire nibble, and through
/// a full message header.
#[test]
fn rcode_roundtrip() {
    cases(256, |rng| {
        let raw = rng.range(0u8..16);
        let rcode = Rcode::from_u8(raw);
        assert_eq!(rcode.to_u8(), raw);
        let mut msg = Message::builder().id(1).rcode(rcode).build();
        msg.header_mut().set_response(true);
        let wire = msg.encode().unwrap();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back.header().rcode(), rcode);
    });
}

/// Header bytes roundtrip for every flag/rcode combination.
#[test]
fn header_roundtrip() {
    cases(256, |rng| {
        // ID, flags and the four section counts.
        let raw = rng.bytes(12..=12);
        let mut r = orscope_dns_wire::wire::Reader::new(&raw);
        let h = Header::decode(&mut r).unwrap();
        let mut w = orscope_dns_wire::wire::Writer::new();
        h.encode(&mut w);
        assert_eq!(w.finish().unwrap(), raw);
    });
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

/// `is_subdomain_of` by its definition: the ancestor's labels are the
/// name's last labels, each equal ignoring ASCII case.
fn subdomain_by_labels(name: &Name, ancestor: &Name) -> bool {
    let name: Vec<&[u8]> = name.labels().collect();
    let ancestor: Vec<&[u8]> = ancestor.labels().collect();
    ancestor.len() <= name.len()
        && name[name.len() - ancestor.len()..]
            .iter()
            .zip(&ancestor)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
}

/// Labels that nearly match each other: a prefix (`xnet` / `net`), a
/// case change, and one whose bytes spell a length byte and a label
/// (`a\x03net` ends in the wire bytes of `net`).
const NEAR_LABELS: &[&[u8]] = &[
    b"net",
    b"NeT",
    b"xnet",
    b"et",
    b"n",
    b"a",
    b"A",
    b"a\x03net",
    b"\x03net",
    b"or000",
    b"OR000",
];

/// A name of 0..=4 labels drawn from [`NEAR_LABELS`].
fn near_name(rng: &mut Rng) -> Name {
    Name::from_labels(rng.vec(0..=4, |rng| *rng.choice(NEAR_LABELS))).unwrap()
}

/// `is_subdomain_of` agrees with the label-by-label definition, for
/// ancestors drawn on their own and for suffixes of the name with their
/// case scrambled.
#[test]
fn subdomain_matches_label_by_label() {
    cases(512, |rng| {
        let name = near_name(rng);
        let ancestor = match rng.bool() {
            true => near_name(rng),
            false => {
                let labels: Vec<&[u8]> = name.labels().collect();
                let keep = rng.range(0..=labels.len());
                let scrambled: Vec<Vec<u8>> = labels[labels.len() - keep..]
                    .iter()
                    .map(|label| {
                        let flip = |b: &u8| match rng.bool() {
                            true => b.to_ascii_uppercase(),
                            false => b.to_ascii_lowercase(),
                        };
                        label.iter().map(flip).collect()
                    })
                    .collect();
                Name::from_labels(scrambled.iter().map(Vec::as_slice)).unwrap()
            }
        };
        assert_eq!(
            name.is_subdomain_of(&ancestor),
            subdomain_by_labels(&name, &ancestor),
            "{name:?} under {ancestor:?}"
        );
    });
    let name = |s: &str| s.parse::<Name>().unwrap();
    assert!(!name("xnet").is_subdomain_of(&name("net")));
    assert!(!name("a.xnet").is_subdomain_of(&name("net")));
    assert!(name("A.B.NeT").is_subdomain_of(&name("b.net")));
    let spelled = Name::from_labels([&b"a\x03net"[..]]).unwrap();
    assert!(!spelled.is_subdomain_of(&name("net")));
}
