//! # Linear Aggressive Prefetching for Cooperative Caches
//!
//! A from-scratch Rust reproduction of
//!
//! > T. Cortes, J. Labarta. *Linear Aggressive Prefetching: A Way to
//! > Increase the Performance of Cooperative Caches.* IPPS 1999.
//!
//! The crate re-exports the whole stack under one roof:
//!
//! * [`predict`] — the predictor zoo: the paper's OBA and IS_PPM:`j`
//!   predictors plus the block-Markov chain and MITHRIL-style
//!   association miner extensions, behind a pluggable registry
//!   (`PredictorSpec`).
//! * [`prefetch`] — the paper's contribution: the aggressive driver
//!   and the *linear* (one block per file in flight) aggressiveness
//!   limiter over any registered predictor.
//! * [`coopcache`] — the two cooperative-cache substrates the paper
//!   evaluates on: PAFS (centralized) and xFS (serverless, N-chance).
//! * [`ioworkload`] — the trace model and the synthetic CHARISMA-like
//!   (parallel machine) and Sprite-like (NOW) workload generators.
//! * [`workzoo`] — the workload zoo: a pluggable `WorkloadSpec`
//!   registry (`lapsim --workload SPEC`) spanning the paper pair,
//!   modern synthetic generators (`web`, `db`, `mltrain`), and
//!   strace/blktrace text-trace ingestion.
//! * [`devmodel`] — device models: geometry-aware disks (seek curve,
//!   rotational latency, extent layout) and the SSTF/C-LOOK request
//!   schedulers.
//! * [`faultkit`] — deterministic fault injection: seeded disk-error
//!   bursts with retry-and-backoff, disk/node outage windows, and
//!   network loss/delay with per-class retry budgets.
//! * [`simkit`] — the deterministic discrete-event engine underneath.
//! * [`lapobs`] — zero-overhead observability: typed simulation
//!   events, the unified metrics registry, and the Chrome-trace
//!   exporter (`lapsim --trace-out`).
//! * [`lap_core`] — machine models (Table 1), the full file-system
//!   simulation, and the metrics behind every figure and table.
//!
//! ## Quickstart
//!
//! ```
//! use lap::prelude::*;
//!
//! // A small CHARISMA-like workload on an 8-node parallel machine.
//! let mut params = CharismaParams::small();
//! let workload = params.generate(42);
//!
//! // Simulate PAFS with Ln_Agr_IS_PPM:1 and 1 MB of cache per node.
//! let mut config = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 1);
//! config.machine.nodes = params.nodes;
//! config.machine.disks = 4;
//! let with_prefetch = run_simulation(config.clone(), workload.clone());
//!
//! // ... and the no-prefetching baseline.
//! let mut np = config;
//! np.prefetch = PrefetchConfig::np();
//! let baseline = run_simulation(np, workload);
//!
//! assert!(with_prefetch.avg_read_ms < baseline.avg_read_ms);
//! ```
//!
//! `run_simulation` is for inputs a program builds itself. Input from
//! outside goes through `Simulation::try_new`, which returns the reason
//! a workload does not fit the machine; its `run` returns an `Outcome`
//! with the report, the recorder and the simulator's self-profile.
//!
//! See `examples/` for runnable scenarios and the `bench` crate for the
//! harness that regenerates every figure and table of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use coopcache;
pub use devmodel;
pub use faultkit;
pub use ioworkload;
pub use lap_core;
pub use lapobs;
pub use predict;
pub use prefetch;
pub use simkit;
pub use simprof;
pub use workzoo;

/// Everything needed to run simulations, in one import.
pub mod prelude {
    pub use coopcache::{
        CacheStats, CooperativeCache, LocalOnlyCache, PafsCache, Replacement, XfsCache,
    };
    pub use devmodel::{DiskGeometry, DiskModelKind, DiskSched};
    pub use faultkit::FaultPlan;
    pub use ioworkload::charisma::CharismaParams;
    pub use ioworkload::sprite::SpriteParams;
    pub use ioworkload::{BlockId, FileId, NodeId, Op, ProcId, Workload};
    pub use lap_core::{
        run_simulation, CacheSystem, CheckMode, MachineConfig, Outcome, PrefetchGranularity,
        SimConfig, SimProfile, SimReport, Simulation,
    };
    pub use lapobs::{NoopRecorder, Recorder, Registry, TraceRecorder};
    pub use prefetch::{
        AggressiveLimit, AlgorithmKind, FilePrefetcher, IsPpm, Oba, PredictorSpec, PrefetchConfig,
        Request, SpecError,
    };
    pub use simkit::{SimDuration, SimTime};
    pub use workzoo::{WorkloadSpec, ZooKind};
}
