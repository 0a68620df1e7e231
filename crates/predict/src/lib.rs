//! # predict — the block-access predictor zoo
//!
//! The prediction half of the IPPS'99 reproduction
//!
//! > T. Cortes, J. Labarta. *Linear Aggressive Prefetching: A Way to
//! > Increase the Performance of Cooperative Caches.* IPPS 1999.
//!
//! extracted from the `prefetch` crate into its own subsystem so that
//! predictors beyond the paper's pair can be plugged in and ablated.
//! It contains:
//!
//! * [`Oba`] — the classic *One Block Ahead* predictor (§2.1).
//! * [`IsPpm`] — the *Interval and Size* PPM predictor family (§2.2):
//!   a graph over *(offset-interval, request-size)* contexts whose
//!   prediction follows the most-recently-used edge.
//! * [`BackoffIsPpm`] — IS_PPM with classic PPM escape-to-lower-order
//!   (extension beyond the paper).
//! * [`BlockMarkov`] — a per-file first/second-order Markov chain over
//!   raw block numbers with fully deterministic tie-breaking.
//! * [`Mithril`] — a MITHRIL-style association miner: a timestamped
//!   circular lookahead window mines block→block associations, and
//!   prediction emits a *ranked candidate set* filtered by support and
//!   ordered by (support, recency).
//! * [`FilePredictor`] — the unified per-file predictor with the
//!   paper's OBA cold-start fallback and the *walk* cursor that
//!   aggressive prefetching consumes. Chain predictors (OBA, IS_PPM,
//!   Markov) walk linearly; set predictors (MITHRIL) walk a ranked
//!   frontier over the association graph, one candidate at a time.
//! * [`PredictorSpec`] — the registry: parse CLI strings such as
//!   `is_ppm:3`, `markov:2` or `mithril+oba` into algorithm
//!   configurations, with helpful errors listing every valid spec.
//! * [`FxHashMap`] / [`FxHashSet`] — the workspace's one fixed, fast
//!   map hasher, used by every per-event map of the simulator.
//!
//! The crate is deliberately dependency-free and simulator-agnostic:
//! predictors see only [`Request`] streams and answer with predicted
//! requests. The `prefetch` crate layers the engine (aggressiveness
//! limits, in-flight accounting, extent batching) on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backoff;
mod fxhash;
mod isppm;
mod markov;
mod mithril;
mod oba;
mod predictor;
mod request;
mod spec;

pub use backoff::BackoffIsPpm;
pub use fxhash::{FxHashMap, FxHashSet};
pub use isppm::{EdgeChoice, IsPpm, Pair};
pub use markov::BlockMarkov;
pub use mithril::Mithril;
pub use oba::Oba;
pub use predictor::{FilePredictor, PredictionSource, Walk};
pub use request::Request;
pub use spec::{
    registry_help, AlgorithmKind, PredictorSpec, SpecError, MITHRIL_LOOKAHEAD, MITHRIL_MIN_SUPPORT,
};
