//! Export of captured traffic to the classic libpcap file format.
//!
//! The paper's 2013 pipeline stored captures as `.pcap` and parsed them
//! with libpcap-based code. This module writes byte-exact pcap files
//! (magic `0xa1b2c3d4`, version 2.4, `LINKTYPE_RAW`) with synthesized
//! IPv4 + UDP headers around each captured DNS payload, so any external
//! tool (tcpdump, tshark, wireshark) can open an orscope capture.

use std::net::Ipv4Addr;

use orscope_netsim::SimTime;

use crate::capture::R2Capture;

/// `LINKTYPE_RAW`: packets start with the IPv4 header.
const LINKTYPE_RAW: u32 = 101;
/// Classic pcap magic (microsecond timestamps, little-endian).
const PCAP_MAGIC: u32 = 0xA1B2_C3D4;

/// One synthesized packet: addressing plus the UDP payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp.
    pub at: SimTime,
    /// IPv4 source.
    pub src: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// IPv4 destination.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
    /// UDP payload bytes.
    pub payload: Vec<u8>,
}

/// Serializes packets into a complete pcap file.
///
/// # Example
///
/// ```
/// use orscope_prober::pcap;
///
/// let bytes = pcap::write_file(&[]);
/// assert_eq!(bytes.len(), 24, "empty capture is just the global header");
/// assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
/// ```
pub fn write_file(packets: &[PcapPacket]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + packets.len() * 128);
    // Global header.
    out.extend(PCAP_MAGIC.to_le_bytes());
    out.extend(2u16.to_le_bytes()); // major
    out.extend(4u16.to_le_bytes()); // minor
    out.extend(0i32.to_le_bytes()); // thiszone
    out.extend(0u32.to_le_bytes()); // sigfigs
    out.extend(65_535u32.to_le_bytes()); // snaplen
    out.extend(LINKTYPE_RAW.to_le_bytes());
    for packet in packets {
        let frame = ip_udp_frame(packet);
        let nanos = packet.at.as_nanos();
        out.extend(((nanos / 1_000_000_000) as u32).to_le_bytes());
        out.extend((((nanos / 1_000) % 1_000_000) as u32).to_le_bytes());
        out.extend((frame.len() as u32).to_le_bytes()); // incl_len
        out.extend((frame.len() as u32).to_le_bytes()); // orig_len
        out.extend(frame);
    }
    out
}

/// Converts a prober R2 capture (response: resolver -> prober) into a
/// pcap packet addressed to `prober`.
pub fn from_r2(capture: &R2Capture, prober: Ipv4Addr, prober_port: u16) -> PcapPacket {
    PcapPacket {
        at: capture.at,
        src: capture.target,
        src_port: 53,
        dst: prober,
        dst_port: prober_port,
        payload: capture.payload.to_vec(),
    }
}

/// Builds the raw IPv4 + UDP frame for one packet.
fn ip_udp_frame(packet: &PcapPacket) -> Vec<u8> {
    let udp_len = 8 + packet.payload.len();
    let total_len = 20 + udp_len;
    let mut frame = Vec::with_capacity(total_len);
    // IPv4 header (20 bytes, no options).
    frame.push(0x45); // version 4, IHL 5
    frame.push(0); // DSCP/ECN
    frame.extend((total_len as u16).to_be_bytes());
    frame.extend(0u16.to_be_bytes()); // identification
    frame.extend(0x4000u16.to_be_bytes()); // flags: DF
    frame.push(64); // TTL
    frame.push(17); // protocol: UDP
    frame.extend(0u16.to_be_bytes()); // checksum placeholder
    frame.extend(packet.src.octets());
    frame.extend(packet.dst.octets());
    let checksum = ipv4_checksum(&frame[..20]);
    frame[10..12].copy_from_slice(&checksum.to_be_bytes());
    // UDP header (checksum 0 = unset, legal for IPv4).
    frame.extend(packet.src_port.to_be_bytes());
    frame.extend(packet.dst_port.to_be_bytes());
    frame.extend((udp_len as u16).to_be_bytes());
    frame.extend(0u16.to_be_bytes());
    frame.extend(&packet.payload);
    frame
}

/// Standard Internet checksum over the IPv4 header.
fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A minimal reader for round-trip testing and external captures.
pub mod read {
    use super::*;

    /// A parsed pcap file: link type and packets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PcapFile {
        /// The data-link type (101 for orscope captures).
        pub linktype: u32,
        /// Parsed packets.
        pub packets: Vec<PcapPacket>,
    }

    /// Parses a pcap file produced by [`super::write_file`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub fn parse_file(bytes: &[u8]) -> Result<PcapFile, String> {
        if bytes.len() < 24 {
            return Err("truncated global header".into());
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        if magic != PCAP_MAGIC {
            return Err(format!("bad magic {magic:#010x}"));
        }
        let linktype = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
        let mut packets = Vec::new();
        let mut pos = 24;
        while pos < bytes.len() {
            if pos + 16 > bytes.len() {
                return Err("truncated packet header".into());
            }
            let sec = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
            let usec = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
            let incl = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4")) as usize;
            pos += 16;
            if pos + incl > bytes.len() {
                return Err("truncated packet body".into());
            }
            let frame = &bytes[pos..pos + incl];
            pos += incl;
            if frame.len() < 28 || frame[0] >> 4 != 4 || frame[9] != 17 {
                return Err("frame is not IPv4/UDP".into());
            }
            let src = Ipv4Addr::new(frame[12], frame[13], frame[14], frame[15]);
            let dst = Ipv4Addr::new(frame[16], frame[17], frame[18], frame[19]);
            let src_port = u16::from_be_bytes([frame[20], frame[21]]);
            let dst_port = u16::from_be_bytes([frame[22], frame[23]]);
            packets.push(PcapPacket {
                at: SimTime::from_nanos(sec as u64 * 1_000_000_000 + usec as u64 * 1_000),
                src,
                src_port,
                dst,
                dst_port,
                payload: frame[28..].to_vec(),
            });
        }
        Ok(PcapFile { linktype, packets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orscope_authns::scheme::ProbeLabel;
    use orscope_netsim::Payload;

    fn sample_packet(seq: u64) -> PcapPacket {
        PcapPacket {
            at: SimTime::from_nanos(1_234_567_000 + seq * 1_000_000),
            src: Ipv4Addr::new(9, 9, 9, 9),
            src_port: 53,
            dst: Ipv4Addr::new(132, 170, 5, 53),
            dst_port: 61_000,
            payload: vec![0xAB; 40 + seq as usize],
        }
    }

    #[test]
    fn roundtrip_through_reader() {
        let packets: Vec<PcapPacket> = (0..5).map(sample_packet).collect();
        let bytes = write_file(&packets);
        let parsed = read::parse_file(&bytes).unwrap();
        assert_eq!(parsed.linktype, LINKTYPE_RAW);
        assert_eq!(parsed.packets.len(), 5);
        for (a, b) in parsed.packets.iter().zip(&packets) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst_port, b.dst_port);
            assert_eq!(a.payload, b.payload);
            // Timestamps keep microsecond precision.
            assert_eq!(a.at.as_nanos() / 1_000, b.at.as_nanos() / 1_000);
        }
    }

    #[test]
    fn ipv4_checksum_validates() {
        let frame = ip_udp_frame(&sample_packet(0));
        // Recomputing the checksum over the header (with the stored
        // checksum in place) must yield zero.
        let mut sum = 0u32;
        for chunk in frame[..20].chunks(2) {
            sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum, 0xFFFF, "one's-complement sum must be all ones");
    }

    #[test]
    fn from_r2_addresses_the_prober() {
        let capture = R2Capture {
            target: Ipv4Addr::new(7, 7, 7, 7),
            label: Some(ProbeLabel::new(0, 1)),
            qname: "or000.0000001.ucfsealresearch.net".parse().unwrap(),
            at: SimTime::from_secs(3),
            sent_at: SimTime::ZERO,
            payload: Payload::from(vec![1, 2, 3]),
        };
        let packet = from_r2(&capture, Ipv4Addr::new(132, 170, 5, 53), 61_000);
        assert_eq!(packet.src, Ipv4Addr::new(7, 7, 7, 7));
        assert_eq!(packet.src_port, 53);
        assert_eq!(packet.dst_port, 61_000);
        assert_eq!(packet.payload, vec![1, 2, 3]);
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(read::parse_file(&[0u8; 10]).is_err());
        let mut bad_magic = write_file(&[]);
        bad_magic[0] = 0;
        assert!(read::parse_file(&bad_magic).is_err());
        let mut truncated = write_file(&[sample_packet(0)]);
        truncated.truncate(30);
        assert!(read::parse_file(&truncated).is_err());
    }
}
