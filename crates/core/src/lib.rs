//! # lap-core — the full simulation stack
//!
//! This crate assembles the substrates into the system the paper
//! evaluates:
//!
//! * machine models for the two architectures of Table 1
//!   ([`MachineConfig::pm`] and [`MachineConfig::now`]) — disks modelled
//!   as *seek + size/bandwidth* with demand-over-prefetch priority,
//!   communications as *startup + size/bandwidth* with distinct local
//!   and remote startups;
//! * the [`Simulation`] that replays an [`ioworkload::Workload`]
//!   against a cooperative cache ([`CacheSystem::Pafs`] or
//!   [`CacheSystem::Xfs`]) with any [`prefetch::PrefetchConfig`]. It
//!   has one start path: [`Simulation::try_new`] checks that the
//!   machine can run the workload, and [`Simulation::run`] returns an
//!   [`Outcome`] — the report, the recorder and the [`SimProfile`].
//!   [`run_simulation`] wraps both for inputs a program builds itself;
//! * the [`SimReport`] carrying everything Figures 4–11 and Table 2
//!   plot: average read time, disk accesses by kind, writes-per-block,
//!   hit ratios and the miss-prediction ratio.
//!
//! ```
//! use lap_core::{run_simulation, CacheSystem, SimConfig};
//! use ioworkload::charisma::CharismaParams;
//! use prefetch::PrefetchConfig;
//!
//! let mut params = CharismaParams::small();
//! params.nodes = 8;
//! let wl = params.generate(1);
//! let mut cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 1);
//! cfg.machine.nodes = 8; // shrink the machine to the workload
//! cfg.machine.disks = 4;
//! let report = run_simulation(cfg.clone(), wl.clone());
//! assert!(report.reads > 0);
//!
//! // The same run through the start path, keeping the profile.
//! let run = lap_core::Simulation::try_new(cfg, wl, lapobs::NoopRecorder)
//!     .expect("the machine fits the workload")
//!     .run();
//! assert_eq!(run.report, report);
//! assert!(run.profile.counters.events > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod metrics;
mod sim;

use std::sync::Arc;

use ioworkload::Workload;

pub use config::{CacheSystem, MachineConfig, PrefetchGranularity, SimConfig};
pub use coopcache::Replacement;
pub use metrics::{SimReport, SpanScore, TimeBucket};
pub use sim::{Outcome, Simulation};
pub use simcheck::CheckMode;
pub use simprof::{Counters as ProfileCounters, PhaseWall, SimProfile};

/// Build and run a simulation in one call, with no recorder, and
/// return its report. For configurations and workloads a program
/// builds itself; input from outside goes through
/// [`Simulation::try_new`], which says what is wrong instead.
///
/// # Panics
/// With [`Simulation::try_new`]'s message, if `config` cannot run
/// `workload`.
pub fn run_simulation(config: SimConfig, workload: impl Into<Arc<Workload>>) -> SimReport {
    Simulation::try_new(config, workload, lapobs::NoopRecorder)
        .unwrap_or_else(|e| panic!("{e}"))
        .run()
        .report
}
