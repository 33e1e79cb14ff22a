#![warn(missing_docs)]
//! A DNS wire-format implementation built from scratch.
//!
//! This crate implements the subset of RFC 1035 (plus EDNS(0), RFC 6891,
//! and the extended rcodes of RFC 6895) needed to build and analyze the
//! open-resolver measurement pipeline:
//!
//! - [`Name`]: domain names with label validation and case-insensitive
//!   comparison,
//! - [`Header`]: the 12-byte message header with all flag bits (QR, AA,
//!   TC, RD, RA) and the response code,
//! - [`Question`], [`Record`], [`RData`]: the question and resource-record
//!   sections with typed rdata for A, NS, CNAME, SOA, PTR, MX, TXT, AAAA
//!   and OPT records,
//! - [`Message`]: full messages with a builder-style API,
//! - wire encoding with RFC 1035 §4.1.4 name compression, and tolerant
//!   decoding that surfaces *why* a packet failed to parse (the paper's
//!   2013 dataset contains 8,764 undecodable responses; the capture layer
//!   needs those failures to be observable, not fatal).
//!
//! # Example
//!
//! ```
//! use orscope_dns_wire::{Message, Name, Question, RecordType, RecordClass};
//!
//! let qname: Name = "or000.0000001.ucfsealresearch.net".parse()?;
//! let query = Message::query(0x1234, Question::new(qname, RecordType::A, RecordClass::In));
//! let wire = query.encode()?;
//! let back = Message::decode(&wire)?;
//! assert_eq!(back.header().id(), 0x1234);
//! assert_eq!(back.questions()[0].qtype(), RecordType::A);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod error;
pub mod header;
pub mod message;
pub mod name;
pub mod question;
pub mod rdata;
pub mod record;
pub mod wire;

pub use error::WireError;
pub use header::{Header, Rcode};
pub use message::{Message, MessageBuilder};
pub use name::{Name, ParseNameError};
pub use question::Question;
pub use rdata::RData;
pub use record::{Record, RecordClass, RecordType};
