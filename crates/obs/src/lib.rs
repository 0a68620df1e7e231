//! # lapobs — observability for the simulation stack
//!
//! Every layer of the simulator (the `simkit` stations, the `lap-core`
//! event loop, the `prefetch` engine, the `coopcache` backends) emits
//! typed [`Event`]s through a [`Recorder`]. Two recorders ship:
//!
//! * [`NoopRecorder`] — the default. `enabled()` is a compile-time
//!   `false`, every emission site is guarded by it, and the recorder is
//!   a zero-sized type, so with static dispatch the entire subsystem
//!   compiles to nothing in the hot path: no branches survive, no
//!   allocation happens, and (by the A/B determinism test in the root
//!   crate) no simulation result changes.
//! * [`TraceRecorder`] — a bounded ring buffer of timestamped events,
//!   exportable as Chrome trace-event JSON ([`chrome::export`]) for
//!   Perfetto / `chrome://tracing`.
//!
//! Aggregated statistics flow through the [`Registry`]: the four stats
//! modules (`simkit::stats`, `lap_core`'s metrics, `prefetch::stats`,
//! `coopcache::stats`) register their counters, gauges, time-weighted
//! series, and latency histograms ([`HistogramData`]) into one
//! namespace, which exports as CSV ([`Registry::to_csv`]).
//!
//! This crate is a leaf: timestamps are plain nanosecond `u64`s and ids
//! are plain integers, so every other crate can depend on it without
//! cycles.
//!
//! ```
//! use lapobs::{Event, Recorder, StationId, TraceRecorder};
//!
//! let mut rec = TraceRecorder::with_capacity(16);
//! let disk0 = StationId::disk(0);
//! if rec.enabled() {
//!     rec.record(1_000, Event::ServiceBegin { station: disk0, class: 0, rid: 0 });
//!     rec.record(9_000, Event::ServiceEnd { station: disk0, class: 0, rid: 0 });
//! }
//! let json = lapobs::chrome::export(rec.events());
//! assert!(json.contains("\"ph\":\"B\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "std maps serve trace export and span sampling, off the untraced event loop"
)]

pub mod chrome;
mod event;
mod record;
mod registry;

pub use event::{Event, Nanos, StationId, StationKind, WalkStopReason, NO_RID};
pub use record::{NoopRecorder, Obs, Recorder, TraceRecorder};
pub use registry::{HistogramData, MetricValue, Registry};
