//! # ioworkload — trace model and synthetic workload generators
//!
//! The paper evaluates its prefetching algorithms with two trace
//! workloads:
//!
//! * **CHARISMA** — file-system traces of the Intel iPSC/860 at NASA
//!   Ames (Nieuwejaar et al.): a parallel machine running scientific
//!   applications with few, large, *shared* files accessed through
//!   large sequential and regularly strided requests.
//! * **Sprite** — the Berkeley Sprite distributed-OS traces (Baker et
//!   al.): a network of workstations with many users, many *small*
//!   files, mostly whole-file sequential reads and very little
//!   inter-client sharing.
//!
//! Neither trace set is redistributable, so this crate provides
//! *synthetic generators* that reproduce the published characteristics
//! the paper's analysis depends on (request sizes, stride patterns,
//! sharing, partial-file access, file sizes, read/write mix). The
//! generators are seeded and fully deterministic, and the resulting
//! [`Workload`] can also be saved/loaded in a simple line-oriented text
//! format for inspection and reuse.
//!
//! ```
//! use ioworkload::charisma::{CharismaParams};
//!
//! let wl = CharismaParams::small().generate(42);
//! assert!(wl.processes.len() > 0);
//! let stats = wl.stats();
//! assert!(stats.reads > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "std maps build and summarise workloads before a simulation starts, never per event"
)]

pub mod charisma;
pub mod mix;
#[cfg(test)]
mod reference;
pub mod sprite;
mod stats;
pub mod streams;
mod text;
mod trace;
mod types;
pub mod util;

pub use stats::WorkloadStats;
pub use text::{utf8_text, ParseError};
pub use trace::{FileMeta, Op, ProcessTrace, Workload};
pub use types::{BlockId, FileId, NodeId, ProcId};
