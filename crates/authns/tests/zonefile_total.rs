//! `zonefile::parse` reads operator-supplied master files: hostile text
//! is an error, never a panic, a zone holds no more records than its
//! file has lines, and what `serialize` writes reads back to the same
//! text.

use orscope_authns::zonefile;

/// What a mutation inserts, and what arbitrary text is drawn from: the
/// master-file syntax's structural bytes, the directive and type
/// letters, and digits.
const ALPHABET: &[u8] = b"$@.;\"\n \t0123456789:ORIGINTLSOAXMCP";

const SAMPLE: &str = r#"
; a cluster fragment, every record type the format carries
$ORIGIN ucfsealresearch.net.
$TTL 60
@                3600 IN SOA ns1 hostmaster 2018042601 7200 900 1209600 300
@                3600 IN NS  ns1
ns1.ucfsealresearch.net. 3600 IN A 104.238.191.60
@                     IN TXT "v=measurement; k=1" "two words"
or000.0000000         IN A   45.76.31.7
or000.0000001         IN A   45.77.100.2
www                   IN CNAME or000.0000000
mail                  IN MX  10 mx.example.com.
host6                 IN AAAA 2001:db8::7
back                  IN PTR @
"#;

#[test]
fn hostile_zone_files_are_errors_never_panics() {
    let zone = zonefile::parse(SAMPLE).expect("the sample is valid");
    let valid = [SAMPLE.to_owned(), zonefile::serialize(&zone)];
    let mut accepted = 0u32;
    orscope_check::cases(20_000, |rng| {
        let mut bytes = rng.choice(&valid).clone().into_bytes();
        if rng.chance(10) {
            bytes = rng.vec(0..300, |rng| *rng.choice(ALPHABET));
        } else {
            rng.mutate(&mut bytes, ALPHABET);
        }
        // The loader is handed text; what is not UTF-8 never reaches it.
        let Ok(text) = std::str::from_utf8(&bytes) else {
            return;
        };
        let Ok(zone) = zonefile::parse(text) else {
            return;
        };
        let records = zone.record_count() + zone.ns_records().len();
        assert!(records <= text.lines().count(), "{text}");
        let written = zonefile::serialize(&zone);
        let again = zonefile::parse(&written)
            .unwrap_or_else(|err| panic!("{err} reading back\n{written}\nfrom\n{text}"));
        assert_eq!(zonefile::serialize(&again), written, "{text}");
        accepted += 1;
    });
    assert!(
        accepted > 1_000,
        "only {accepted} mutated files still parsed"
    );
}
