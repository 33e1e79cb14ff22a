#![warn(missing_docs)]
//! The ZMap-style open-resolver prober.
//!
//! This crate reproduces the measurement side of the paper's Fig. 2: a
//! scanner that sends one recursive `A` query (Q1) to every target in a
//! probe space, each for a *freshly generated, unique* subdomain of the
//! measurement zone, and captures the responses (R2) keyed by qname.
//!
//! Methodological details reproduced from §III:
//!
//! - **Subdomain clusters** ([`SubdomainGenerator`]): names follow the
//!   two-tier `or{ccc}.{sssssss}` scheme of Fig. 3; a cluster holds as
//!   many names as the authoritative server can load at once.
//! - **Subdomain reuse**: names whose probe never produced an R2 are
//!   recycled for later targets, which is what cut the paper's scan from
//!   a theoretical 800 clusters to 4.
//! - **Rate limiting** ([`Pacer`]): the 2018 scan ran at 100k packets
//!   per second; the prober's timer ticks on a fixed grid and sends
//!   each target on the tick its scan position falls due.
//! - **The port-53 blind spot** ([`ProbeStats::off_port_dropped`]):
//!   like ZMap, the prober only accepts responses whose source port is
//!   53; answers from other ports are counted but not captured (§V).
//! - **pcap export** ([`pcap`]): captures serialize to real libpcap
//!   files, as the paper's 2013 pipeline stored its traffic.

pub mod capture;
pub mod pacer;
pub mod pcap;
pub mod scan;
pub mod subdomain;

pub use capture::{ProbeStats, R2Capture};
pub use pacer::{Pacer, ZeroRateError};
pub use scan::{Prober, ProberConfig, TargetSource, TargetWalk, MAX_RETRIES};
pub use subdomain::SubdomainGenerator;
