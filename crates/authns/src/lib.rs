#![warn(missing_docs)]
//! Name servers under our control: the authoritative server for the
//! measurement domain, plus simulated root and TLD servers.
//!
//! The paper's methodology needs a controlled last hop: every probe query
//! is for a unique subdomain of `ucfsealresearch.net`, and the
//! authoritative server for that zone both answers the queries (R1) and
//! captures the incoming resolver traffic (Q2) — the tcpdump side of
//! Fig. 2. Because our resolvers really recurse, this crate also provides
//! the root and `.net` TLD servers they walk through (Fig. 1 steps 2-5).
//!
//! Modules:
//!
//! - [`scheme`]: the two-tier probe subdomain naming scheme of Fig. 3
//!   (`or{ccc}.{sssssss}.<zone>`) and the per-subdomain ground-truth
//!   addresses answers are validated against,
//! - [`zone`]: zone data and lookup semantics (answer, NXDomain, NoData),
//! - [`cluster`]: the 5-million-entry zone cluster with rollover,
//! - [`server`]: the [`AuthoritativeServer`] endpoint with Q2/R1 capture,
//! - [`hierarchy`]: [`DelegationServer`], the endpoint of the root and
//!   TLD servers alike,
//! - [`capture`]: the captured records (R2, Q2/R1), the [`RecordSink`]
//!   that consumes them, and the server-side packet log.

pub mod capture;
pub mod cluster;
pub mod hierarchy;
pub mod scheme;
pub mod server;
pub mod zone;

pub use capture::{CaptureHandle, CapturedPacket, Direction, R2Capture, RecordSink, SharedSink};
pub use cluster::{ClusterAnswer, ClusterZone};
pub use hierarchy::DelegationServer;
pub use scheme::{ground_truth, ProbeLabel};
pub use server::{AuthStats, AuthoritativeServer};
pub use zone::{Zone, ZoneAnswer};
