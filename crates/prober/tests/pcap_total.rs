//! `pcap::read::parse_file` reads capture files from anywhere: hostile
//! bytes are an error, never a panic, the packets it returns carry no
//! more payload than the file has bytes, and what `write_file` writes
//! reads back packet for packet.

use std::net::Ipv4Addr;

use orscope_check::Rng;
use orscope_netsim::SimTime;
use orscope_prober::pcap::{self, PcapPacket};

/// A packet the format holds exactly: a timestamp in whole microseconds
/// within the 32-bit seconds field.
fn packet(rng: &mut Rng) -> PcapPacket {
    let micros = rng.range(0..u64::from(u32::MAX) * 1_000_000);
    PcapPacket {
        at: SimTime::from_nanos(micros * 1_000),
        src: Ipv4Addr::from(rng.next_u64() as u32),
        src_port: rng.next_u64() as u16,
        dst: Ipv4Addr::from(rng.next_u64() as u32),
        dst_port: rng.next_u64() as u16,
        payload: rng.bytes(0..600),
    }
}

#[test]
fn hostile_pcap_files_are_errors_never_panics() {
    let mut accepted = 0u32;
    orscope_check::cases(20_000, |rng| {
        let packets = rng.vec(0..6, packet);
        let mut bytes = pcap::write_file(&packets);
        let file = pcap::read::parse_file(&bytes).expect("what write_file writes parses");
        assert_eq!((file.linktype, file.packets), (101, packets));
        if rng.chance(10) {
            bytes = rng.bytes(0..200);
        } else {
            rng.mutate(&mut bytes, &[]);
        }
        if let Ok(file) = pcap::read::parse_file(&bytes) {
            let payload: usize = file.packets.iter().map(|p| p.payload.len()).sum();
            assert!(
                payload <= bytes.len(),
                "{payload} payload bytes from {bytes:02x?}"
            );
            accepted += 1;
        }
    });
    assert!(
        accepted > 1_000,
        "only {accepted} mutated files still parsed"
    );
}
