//! # workzoo — the workload zoo
//!
//! The paper asks its question — does a *linear* limit on prefetch
//! aggressiveness beat both timidity and unlimited greed? — on exactly
//! two workloads (CHARISMA, Sprite). Both are parallel-scientific
//! shapes whose working sets *fit* the aggregate cooperative cache, so
//! history-replay predictors (markov, bare mithril) cover zero reads on
//! them: every block a replayed history could predict is still cached.
//!
//! This crate makes workloads pluggable the way the predictor registry
//! made predictors pluggable:
//!
//! * [`WorkloadSpec`] — parse/print CLI workload specs
//!   (`charisma:paper`, `web:64,0.8,256`, `strace:FILE`, …) with a
//!   [`registry_help`] menu carried on every parse error;
//! * synthetic generators with modern access shapes and a first-class
//!   *cache-overflow knob*: [`web::WebParams`] (Zipf file popularity +
//!   session locality), [`db::DbParams`] (sequential scans mixed with
//!   point lookups), [`mltrain::MlTrainParams`] (epoch-replayed
//!   shuffled reads over dataset shards — the canonical overflow
//!   shape);
//! * a trace front-end ([`tracefile`]) that parses strace- and
//!   blkparse-style text records into the existing
//!   [`ioworkload::Workload`] per-process demand model, preserving
//!   per-process ordering and mapping bytes to blocks through the
//!   existing layout.
//!
//! ```
//! use workzoo::WorkloadSpec;
//!
//! let spec = WorkloadSpec::parse("mltrain:4,2048").unwrap();
//! assert_eq!(spec.canonical(), "mltrain:4,2048");
//! let wl = spec.build(42).unwrap();
//! assert!(wl.io_ops() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "std maps key ingested traces by external paths and pids at load time, never per event"
)]

pub mod db;
pub mod mltrain;
mod spec;
pub mod tracefile;
pub mod web;

pub use spec::{registry_help, BuildError, WorkloadSpec, ZooKind, ZooSpecError};
pub use tracefile::TraceParseError;
