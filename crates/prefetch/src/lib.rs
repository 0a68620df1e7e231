//! # prefetch — the IPPS'99 linear aggressive prefetching algorithms
//!
//! This crate implements the primary contribution of
//!
//! > T. Cortes, J. Labarta. *Linear Aggressive Prefetching: A Way to
//! > Increase the Performance of Cooperative Caches.* IPPS 1999.
//!
//! as a pure, simulator-agnostic library. The *predictors* themselves
//! — [`Oba`], the [`IsPpm`] family, [`BlockMarkov`], [`Mithril`] and
//! the unified [`FilePredictor`] with its registry ([`PredictorSpec`])
//! — live in the `predict` crate and are re-exported here; this crate
//! adds the engine:
//!
//! * [`FilePrefetcher`] — the per-file prefetch engine (§3): simple
//!   (one prediction per demand request) or *aggressive* (keep walking
//!   the prediction graph as if predicted requests had been issued,
//!   restarting on a miss-prediction), with the *linear* aggressiveness
//!   limit of **at most one in-flight prefetched block per file** — or,
//!   for ablations, a `k`-block window or no limit at all. Predictors
//!   that emit ranked candidate *sets* (MITHRIL) burn one limit unit
//!   per issued candidate — the walk yields candidates one at a time —
//!   and extent mode only batches candidates that stay contiguous.
//!
//! The engine is deliberately decoupled from any cache or disk model:
//! the caller reports demand requests and prefetch completions, and the
//! engine answers with block numbers to prefetch. `lap-core` wires it
//! to the cooperative caches and the disk stations; this crate could
//! just as well drive a real file system.
//!
//! ```
//! use prefetch::{FilePrefetcher, PrefetchConfig, Request};
//!
//! // Ln_Agr_IS_PPM:1 on a 1000-block file.
//! let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(1), 1000);
//! // Teach it the pattern of Figure 1: 2 blocks, +3 -> 3 blocks, +5 -> ...
//! for req in [
//!     Request::new(0, 2),
//!     Request::new(3, 3),
//!     Request::new(8, 2),
//!     Request::new(11, 3),
//!     Request::new(16, 2),
//! ] {
//!     pf.on_demand(req);
//! }
//! // The engine now predicts the continuation of the pattern; the first
//! // block it wants to prefetch is the start of the next request: 19.
//! let next = pf.next_block(|_| false).unwrap();
//! assert_eq!(next, 19);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod engine;
pub mod replay;
mod stats;

pub use config::{AggressiveLimit, PrefetchConfig, DEFAULT_LEAD_CAP};
pub use engine::FilePrefetcher;
pub use stats::PrefetchStats;
// The predictors themselves live in the `predict` crate (the predictor
// zoo); re-export the full surface so existing `prefetch::` users keep
// compiling unchanged.
pub use predict::{
    registry_help, AlgorithmKind, BackoffIsPpm, BlockMarkov, EdgeChoice, FilePredictor, FxHashMap,
    FxHashSet, IsPpm, Mithril, Oba, Pair, PredictionSource, PredictorSpec, Request, SpecError,
    Walk,
};
