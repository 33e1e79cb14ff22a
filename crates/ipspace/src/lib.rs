#![warn(missing_docs)]
//! IPv4 address-space utilities for Internet-wide scanning.
//!
//! This crate provides the address-space substrate used by the
//! open-resolver measurement pipeline:
//!
//! - [`Cidr`]: CIDR block arithmetic (`a.b.c.d/len`),
//! - [`reserved`]: the registry of RFC-reserved blocks excluded from
//!   probing (Table I of the paper),
//! - [`Blocklist`]: efficient membership tests over sets of CIDRs,
//! - [`ScanPermutation`]: a ZMap-style pseudorandom permutation of an
//!   address space based on iteration over a multiplicative group modulo
//!   a prime, so that a full scan visits every address exactly once in a
//!   hard-to-predict order without keeping per-address state.
//!
//! # Example
//!
//! ```
//! use orscope_ipspace::{Blocklist, ScanPermutation};
//!
//! let blocklist = Blocklist::reserved();
//! assert!(blocklist.contains(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 1))));
//! // What is left to probe: the paper's 2018 Q1 count (Table II).
//! assert_eq!((1u64 << 32) - blocklist.covered(), 3_702_258_432);
//!
//! // A permutation over a small probe space: every address visited once.
//! let perm = ScanPermutation::new(1000, 42);
//! let mut seen: Vec<u32> = perm.iter().collect();
//! seen.sort_unstable();
//! assert_eq!(seen, (0..1000).collect::<Vec<_>>());
//! ```

pub mod allowed;
pub mod blocklist;
pub(crate) mod cidr;
pub mod permutation;
pub mod prime;
pub mod reserved;

pub use allowed::AllowedSpace;
pub use blocklist::Blocklist;
pub use cidr::{Cidr, ParseCidrError};
pub use permutation::{ScanPermutation, ScanPermutationIter};
