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
//!   [`CacheSystem::Xfs`]) with any [`prefetch::PrefetchConfig`];
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
//! let report = run_simulation(cfg, wl);
//! assert!(report.reads > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod metrics;
mod sim;

pub use config::{CacheSystem, MachineConfig, PrefetchGranularity, SimConfig};
pub use coopcache::Replacement;
pub use metrics::{SimReport, SpanScore, TimeBucket};
pub use sim::Simulation;
pub use simcheck::CheckMode;
pub use simprof::{Counters as ProfileCounters, PhaseWall, SimProfile};

/// Convenience: build and run a simulation in one call.
pub fn run_simulation(config: SimConfig, workload: ioworkload::Workload) -> SimReport {
    Simulation::new(config, workload).run()
}

/// Convenience: run a simulation over a shared workload (no deep clone
/// per run — use in parameter sweeps).
pub fn run_simulation_shared(
    config: SimConfig,
    workload: std::sync::Arc<ioworkload::Workload>,
) -> SimReport {
    Simulation::new_shared(config, workload).run()
}

/// Convenience: run a simulation with event tracing enabled, returning
/// the report together with the captured trace (export it with
/// [`lapobs::chrome::export`]).
pub fn run_simulation_traced(
    config: SimConfig,
    workload: std::sync::Arc<ioworkload::Workload>,
) -> (SimReport, lapobs::TraceRecorder) {
    Simulation::with_recorder(config, workload, lapobs::TraceRecorder::new()).run_traced()
}

/// Convenience: build and run a simulation with self-profiling,
/// returning the report (bit-identical to [`run_simulation`]'s)
/// together with the [`SimProfile`]. Construction is timed as the
/// profile's `setup` phase.
pub fn run_simulation_profiled(
    config: SimConfig,
    workload: ioworkload::Workload,
) -> (SimReport, SimProfile) {
    let t0 = std::time::Instant::now();
    let sim = Simulation::new(config, workload);
    let setup = t0.elapsed();
    let (report, _rec, mut profile) = sim.run_profiled();
    profile.wall.setup = setup;
    (report, profile)
}
