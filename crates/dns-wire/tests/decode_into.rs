//! In-place decode is allocating decode: one `Message` reused across
//! tens of thousands of arbitrary, mutated-valid and valid payloads of
//! every size, in random order, is after each `decode_into` exactly what
//! a fresh `Message::decode` of the same bytes returns — same value,
//! same spelling, same re-encoding — or, on error, the same `WireError`
//! and an empty message. Nothing of a longer previous packet (a record,
//! a TXT segment, name bytes past the new length) survives into a
//! shorter next one, and nothing panics.

use std::net::{Ipv4Addr, Ipv6Addr};

use orscope_check::Rng;
use orscope_dns_wire::rdata::Soa;
use orscope_dns_wire::{
    Message, Name, Question, RData, Rcode, Record, RecordClass, RecordType, WireError,
};

/// A name of 0–6 labels of 1–40 mixed-case bytes over a small alphabet,
/// so that names of one message share suffixes (compression pointers)
/// and differ in case only (what `==` on names cannot see).
fn name(rng: &mut Rng) -> Name {
    const LABEL_BYTES: &[u8] = b"abAB01-";
    let labels: Vec<Vec<u8>> = rng.vec(0..7, |rng| {
        let longest = if rng.range(0..8) == 0 { 40 } else { 4 };
        rng.vec(1..=longest, |rng| *rng.choice(LABEL_BYTES))
    });
    Name::from_labels(labels).expect("at most 6 x 41 wire bytes")
}

fn rdata(rng: &mut Rng) -> RData {
    match rng.range(0..9) {
        0 => RData::A(Ipv4Addr::from(rng.next_u64() as u32)),
        1 => RData::Ns(name(rng)),
        2 => RData::Cname(name(rng)),
        3 => RData::Ptr(name(rng)),
        4 => RData::Soa(Box::new(Soa {
            mname: name(rng),
            rname: name(rng),
            serial: rng.next_u64() as u32,
            refresh: rng.next_u64() as u32,
            retry: rng.next_u64() as u32,
            expire: rng.next_u64() as u32,
            minimum: rng.next_u64() as u32,
        })),
        5 => RData::Mx {
            preference: rng.next_u64() as u16,
            exchange: name(rng),
        },
        6 => RData::Txt(rng.vec(0..5, |rng| rng.bytes(0..60))),
        7 => RData::Aaaa(Ipv6Addr::from(
            (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
        )),
        _ => RData::Unknown {
            // OPT, ANY and two codes this crate does not model.
            rtype: *rng.choice(&[41, 255, 99, 65_280]),
            data: rng.bytes(0..40),
        },
    }
}

/// The wire form of a message with 0–2 questions and 0–5 records a
/// section: from a bare header to several hundred bytes.
fn valid_payload(rng: &mut Rng) -> Vec<u8> {
    let mut builder = Message::builder()
        .id(rng.next_u64() as u16)
        .recursion_desired(rng.bool())
        .rcode(*rng.choice(&[Rcode::NoError, Rcode::NXDomain, Rcode::ServFail]));
    for _ in 0..rng.range(0..3) {
        builder = builder.question(Question::new(
            name(rng),
            RecordType::from_u16(rng.range(0..300)),
            RecordClass::from_u16(rng.range(1..=4)),
        ));
    }
    let record = |rng: &mut Rng| {
        Record::new(
            name(rng),
            RecordClass::from_u16(rng.range(1..=4)),
            rng.next_u64() as u32,
            rdata(rng),
        )
    };
    let busy = rng.range(0..3) == 0;
    let count = |rng: &mut Rng| rng.range(0..if busy { 6 } else { 2 });
    for _ in 0..count(rng) {
        builder = builder.answer(record(rng));
    }
    for _ in 0..count(rng) {
        builder = builder.authority(record(rng));
    }
    for _ in 0..count(rng) {
        builder = builder.additional(record(rng));
    }
    builder.build().encode().expect("generated messages encode")
}

/// A third arbitrary bytes, a third valid messages, a third valid
/// messages with a few bytes flipped, inserted, deleted, doubled or cut
/// off.
fn payload(rng: &mut Rng) -> Vec<u8> {
    match rng.range(0..3) {
        0 => rng.bytes(0..200),
        1 => valid_payload(rng),
        _ => {
            let mut bytes = valid_payload(rng);
            rng.mutate(&mut bytes, &[]);
            bytes
        }
    }
}

/// `reused` after `decode_into(bytes)` against a fresh decode of the
/// same bytes. `Debug` spells names out in their own case and lists
/// every TXT byte, which `==` (case-insensitive on names) does not.
fn check(reused: &mut Message, bytes: &[u8]) -> Result<(), WireError> {
    let fresh = Message::decode(bytes);
    let result = reused.decode_into(bytes);
    match &fresh {
        Ok(fresh) => {
            assert_eq!(result, Ok(()));
            assert_eq!(reused, fresh);
            assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
            assert_eq!(reused.encode(), fresh.encode());
        }
        Err(error) => {
            assert_eq!(result.as_ref(), Err(error));
            assert_eq!(*reused, Message::default());
            assert_eq!(format!("{reused:?}"), format!("{:?}", Message::default()));
        }
    }
    result
}

#[test]
fn one_reused_message_decodes_every_payload_like_a_fresh_one() {
    const ROUNDS: u64 = 60_000;
    let mut reused = Message::default();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    orscope_check::cases(ROUNDS, |rng| match check(&mut reused, &payload(rng)) {
        Ok(()) => accepted += 1,
        Err(_) => rejected += 1,
    });
    // Both arms really ran, interleaved.
    assert!(accepted > ROUNDS / 3, "{accepted} accepted");
    assert!(rejected > ROUNDS / 3, "{rejected} rejected");
}

#[test]
fn a_long_message_leaves_nothing_behind_in_a_short_one() {
    let long_name: Name = format!("{0}.{0}.{0}.example", "x".repeat(60))
        .parse()
        .unwrap();
    let mut long = Message::builder()
        .id(1)
        .question(Question::a(long_name.clone()))
        .question(Question::any(long_name.clone()));
    for i in 0..6u8 {
        long = long
            .answer(Record::in_class(
                long_name.clone(),
                60,
                RData::Txt(vec![vec![i; 200], vec![i; 100], vec![i; 50]]),
            ))
            .authority(Record::in_class(
                long_name.clone(),
                60,
                RData::Ns(long_name.clone()),
            ))
            .additional(Record::in_class(
                long_name.clone(),
                60,
                RData::Unknown {
                    rtype: 99,
                    data: vec![i; 120],
                },
            ));
    }
    let long = long.build().encode().unwrap();
    // Same shapes, everything shorter: one question, one one-segment
    // TXT, a short NS target, fewer opaque bytes.
    let short_name: Name = "a.b".parse().unwrap();
    let short = Message::builder()
        .id(2)
        .question(Question::a(short_name.clone()))
        .answer(Record::in_class(
            short_name.clone(),
            60,
            RData::Txt(vec![b"ok".to_vec()]),
        ))
        .authority(Record::in_class(
            short_name.clone(),
            60,
            RData::Ns("c".parse().unwrap()),
        ))
        .additional(Record::in_class(
            short_name,
            60,
            RData::Unknown {
                rtype: 99,
                data: vec![7],
            },
        ))
        .build()
        .encode()
        .unwrap();
    let mut reused = Message::default();
    for bytes in [&long, &short, &long, &short[..12], &short] {
        let _ = check(&mut reused, bytes);
    }
    assert_eq!(reused.answers().len(), 1);
    assert_eq!(
        reused.answers()[0].rdata(),
        &RData::Txt(vec![b"ok".to_vec()])
    );
    // A header that announces sections the packet does not carry: the
    // error empties the message, the long one's records included.
    reused.decode_into(&long).unwrap();
    assert!(matches!(
        check(&mut reused, &long[..long.len() - 1]),
        Err(WireError::Truncated { .. })
    ));
}
