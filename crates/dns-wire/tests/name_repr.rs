//! `Name` keeps up to 54 bytes of labels inline and moves a longer
//! name's labels to one heap buffer. Neither kind may show: a name of
//! every label-data length from 0 to 254, however it was built, behaves
//! like a plain `Vec<u8>` of its length-prefixed labels on `==`, its
//! byte-exact `labels`, `Hash`, `Ord`, `Display`, `wire_len` and an
//! encode/decode round trip. And the inline kind is what the scan pays for: cloning or
//! decoding one allocates nothing.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use orscope_check::alloc::{thread_requested_bytes, CountingAlloc};
use orscope_check::{cases, Rng};
use orscope_dns_wire::wire::{Reader, Writer};
use orscope_dns_wire::Name;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Label bytes of both cases, digits, a dot, a backslash and two
/// unprintables: everything `==`, `Ord` and `Display` treat specially.
const LABEL_BYTES: &[u8] = b"aZbY09.-\\\x01\x7f";

/// The reference: length-prefixed labels, no root byte.
type Data = Vec<u8>;

fn labels(data: &[u8]) -> Vec<&[u8]> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let len = data[pos] as usize;
        out.push(&data[pos + 1..pos + 1 + len]);
        pos += 1 + len;
    }
    out
}

/// Labels whose length-prefixed bytes total exactly `len` (0 or 2..=254).
fn data_of_len(rng: &mut Rng, len: usize) -> Data {
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        let left = len - data.len();
        let longest = (left - 1).min(63);
        let mut label_len = rng.range(1..=longest);
        if left - 1 - label_len == 1 {
            // Never leave a single byte: no label fits in it.
            label_len = if label_len < longest {
                label_len + 1
            } else {
                label_len - 1
            };
        }
        data.push(label_len as u8);
        data.extend((0..label_len).map(|_| *rng.choice(LABEL_BYTES)));
    }
    assert_eq!(data.len(), len);
    data
}

fn build(data: &[u8]) -> Name {
    Name::from_labels(labels(data)).expect("a valid reference")
}

fn lower(data: &[u8]) -> Data {
    data.to_ascii_lowercase()
}

/// The reference with its case scrambled, as DNS 0x20 clients send
/// names: every letter takes the case of the next entropy bit. Length
/// bytes are at most 63, below every letter, so they are left alone.
fn scramble(data: &[u8], mut entropy: u64) -> Data {
    let mut out = data.to_vec();
    for b in out.iter_mut().filter(|b| b.is_ascii_alphabetic()) {
        let flip = entropy & 1 == 1;
        entropy = entropy.rotate_right(1) ^ 0x9E37_79B9_7F4A_7C15;
        *b = if flip {
            b.to_ascii_uppercase()
        } else {
            b.to_ascii_lowercase()
        };
    }
    out
}

/// Byte-exact (case-sensitive) equality: the same labels, spelled the
/// same.
fn same_bytes(a: &Name, b: &Name) -> bool {
    a.labels().eq(b.labels())
}

fn display(data: &[u8]) -> String {
    if data.is_empty() {
        return ".".into();
    }
    let mut out = String::new();
    for (i, label) in labels(data).into_iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        for &b in label {
            match b {
                b'.' => out.push_str("\\."),
                0x21..=0x7E => out.push(b as char),
                _ => out.push_str(&format!("\\{b:03}")),
            }
        }
    }
    out
}

/// Canonical order: labels right to left, each compared lowercased.
fn order(a: &[u8], b: &[u8]) -> Ordering {
    let key = |data: &[u8]| -> Vec<Data> { labels(data).iter().rev().map(|l| lower(l)).collect() };
    key(a).cmp(&key(b))
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The hash is over the lowercased labels, each closed by a zero.
fn reference_hash(data: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for label in labels(data) {
        for b in label {
            hasher.write_u8(b.to_ascii_lowercase());
        }
        hasher.write_u8(0);
    }
    hasher.finish()
}

fn wire(data: &[u8]) -> Vec<u8> {
    let mut bytes = data.to_vec();
    bytes.push(0);
    bytes
}

/// `name` against its reference `data`, alone and beside `other`.
fn check(name: &Name, data: &[u8], other: (&Name, &[u8]), how: &str) {
    let (other, other_data) = other;
    assert_eq!(name.wire_len(), 1 + data.len(), "{how}");
    assert_eq!(name.label_count(), labels(data).len(), "{how}");
    assert_eq!(name.to_string(), display(data), "{how}");
    assert_eq!(hash_of(name), reference_hash(data), "{how}");
    assert!(same_bytes(name, &build(data)), "{how}");
    assert_eq!(name == other, lower(data) == lower(other_data), "{how}");
    assert_eq!(same_bytes(name, other), data == other_data, "{how}");
    assert_eq!(name.cmp(other), order(data, other_data), "{how}");
    assert_eq!(other.cmp(name), order(other_data, data), "{how}");
    let mut w = Writer::new();
    name.encode(&mut w).expect("encodable");
    let bytes = w.finish().expect("fits");
    assert_eq!(bytes, wire(data), "{how}");
    let back = Name::decode(&mut Reader::new(&bytes)).expect("decodable");
    assert!(same_bytes(&back, name), "{how}");
}

#[test]
fn every_length_built_every_way_matches_a_byte_vector() {
    cases(4, |rng| {
        for len in (0..=254).filter(|&len| len != 1) {
            let data = data_of_len(rng, len);
            let other = match rng.range(0..3) {
                0 => scramble(&data, rng.next_u64()),
                1 => data_of_len(rng, len),
                _ => {
                    let other_len = *rng.choice(&[0, 2, 20, 54, 56, 200, 254]);
                    data_of_len(rng, other_len)
                }
            };
            let other_name = build(&other);
            let other = (&other_name, &other[..]);

            check(
                &build(&data),
                &data,
                other,
                &format!("from_labels, {len} B"),
            );

            // Decode into a slot that last held the other kind of name.
            let previous = if len <= 54 { 200 } else { 20 };
            let mut slot = build(&data_of_len(rng, previous));
            slot.decode_into(&mut Reader::new(&wire(&data)))
                .expect("decodable");
            check(&slot, &data, other, &format!("decode_into, {len} B"));

            // `parent` drops a first label, which may take a name from
            // the heap back inline.
            let room = 254 - len;
            if room >= 2 {
                let first_len = rng.range(1..=(room - 1).min(63));
                let mut longer = vec![first_len as u8];
                longer.extend((0..first_len).map(|_| *rng.choice(LABEL_BYTES)));
                longer.extend_from_slice(&data);
                let parent = build(&longer).parent().expect("not the root");
                check(&parent, &data, other, &format!("parent, {len} B"));
            }

            if let Some((&first, rest)) = labels(&data).split_first() {
                let suffix = build(&data[1 + first.len()..]);
                assert_eq!(labels(&data[1 + first.len()..]), rest);
                let first = std::str::from_utf8(first).expect("ASCII labels");
                let prepended = suffix.prepend(first).expect("valid");
                check(&prepended, &data, other, &format!("prepend, {len} B"));
            }
        }
    });
}

#[test]
fn inline_names_allocate_nothing() {
    assert!(std::mem::size_of::<Name>() <= 64);
    let mut rng = Rng::new(7);
    for len in (0..=254).filter(|&len| len != 1) {
        let data = data_of_len(&mut rng, len);
        let bytes = wire(&data);
        let parts = labels(&data);
        // A reused slot that last held the other kind of name.
        let previous = if len <= 54 { 200 } else { 20 };
        let mut slot = build(&data_of_len(&mut rng, previous));
        let before = thread_requested_bytes();
        let built = Name::from_labels(&parts).expect("valid");
        let cloned = built.clone();
        let decoded = Name::decode(&mut Reader::new(&bytes)).expect("decodable");
        slot.decode_into(&mut Reader::new(&bytes))
            .expect("decodable");
        let slot_cloned = slot.clone();
        let requested = thread_requested_bytes() - before;
        // Five names: one labels buffer each once they spill.
        let want = if len <= 54 { 0 } else { 5 * 254 };
        assert_eq!(requested, want, "{len} label bytes");
        assert!(
            same_bytes(&built, &cloned)
                && same_bytes(&decoded, &slot)
                && same_bytes(&slot, &slot_cloned)
        );
    }
}
