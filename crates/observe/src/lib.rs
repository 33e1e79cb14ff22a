#![warn(missing_docs)]
//! The resolver observatory: rolling campaigns over a churning
//! population, with a live HTTP query/export surface.
//!
//! The paper is two snapshots — 2013 and 2018 — and its sharpest
//! finding is what moved *between* them: 60% of the population gone,
//! honest resolution collapsing, NXDOMAIN walls and redirection rising.
//! This crate turns the repo's batch campaign machinery into the
//! instrument that could have watched that happen: a long-running
//! service that re-scans a *churning* population every virtual day and
//! publishes the trend tables incrementally.
//!
//! The pieces, each its own module:
//!
//! - [`resolve`] — population discovery as a membership-update stream
//!   ([`Resolve`]/[`Resolution`]/[`Update`], after linkerd2-proxy's
//!   resolver traits).
//! - [`churn`] — the built-in seeded [`ChurnModel`]: joins, leaves, and
//!   profile drift as a pure function of the seed.
//! - [`observatory`] — the supervised epoch scheduler: apply churn, run
//!   a campaign round on the shared sharded/streaming infrastructure
//!   (retrying once and degrading — never dying — on a failed round),
//!   absorb the result into rolling tables. Two epochs' rounds run side
//!   by side and are absorbed strictly in epoch order.
//! - [`series`] — the rolling time-series state: per-epoch
//!   classification counts, the profile-transition matrix (including
//!   the `skip` pseudo-row that conserves population through degraded
//!   epochs), trend deltas.
//! - [`state`] — checkpoint generations: integrity-sealed, fsynced
//!   snapshots; resume quarantines corrupt generations, rolls back to
//!   the newest verified one, fast-forwards churn, and continues
//!   byte-identically.
//! - [`http`] — the hand-rolled, hardened HTTP surface: `/healthz`,
//!   `/readyz`, `/tables`, `/trends`, `/metrics` under explicit
//!   [`HttpConfig`] limits.
//!
//! # Quick start
//!
//! ```
//! use std::net::TcpListener;
//! use orscope_observe::{http, Observatory, ServeConfig};
//! use orscope_resolver::paper::Year;
//!
//! let mut config = ServeConfig::new(Year::Y2018, 60_000.0);
//! config.epochs = Some(2); // two virtual days, then stop
//! config.state_dir = std::env::temp_dir().join("orscope-doc-serve");
//! # std::fs::remove_dir_all(&config.state_dir).ok(); // stale state from prior doc runs
//! let mut observatory = Observatory::new(config).unwrap();
//!
//! // Serve the live surface while epochs run.
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let surface = http::serve(listener, observatory.shared()).unwrap();
//!
//! let report = observatory.run().unwrap();
//! assert_eq!(report.epochs_completed, 2);
//!
//! observatory.shared().request_shutdown();
//! surface.join();
//! # std::fs::remove_dir_all(observatory.config().state_dir.clone()).ok();
//! ```

pub mod churn;
pub mod http;
pub mod observatory;
pub mod resolve;
pub mod series;
pub mod state;

pub use churn::{ChurnConfig, ChurnModel, ChurnResolution};
pub use http::{serve, serve_with, HttpConfig};
pub use observatory::{EpochSabotage, Observatory, ObservatoryShared, ServeConfig, ServeError};
pub use resolve::{Resolution, Resolve, Update};
pub use series::{EpochRow, RollingTables};
pub use state::ObservatoryCheckpoint;
