//! # simkit — deterministic discrete-event simulation substrate
//!
//! This crate is the reproduction's stand-in for the DIMEMAS simulator
//! core used by Cortes & Labarta (IPPS'99). DIMEMAS is a closed-source,
//! trace-driven simulator of distributed-memory parallel machines; the
//! paper only relies on a small, well-documented part of it:
//!
//! * a global simulated clock and an ordered event list,
//! * service stations with queueing (disks, with *demand-before-prefetch*
//!   priority) modelled as `latency + size / bandwidth`,
//! * communication modelled as `startup + size / bandwidth`, and
//! * per-process CPU demand bursts.
//!
//! `simkit` provides the generic machinery (time, event queue, stations,
//! statistics); the concrete disk models live in `devmodel` and the
//! network and CPU costs in `lap-core`.
//!
//! ## Design
//!
//! Instead of an inversion-of-control engine that owns callbacks, the
//! event queue and stations are *passive* data structures that a
//! simulation loop drives explicitly. This avoids `Rc<RefCell<…>>`
//! webs, keeps the hot loop allocation-free, and makes the whole
//! simulation deterministic and easily testable: two events scheduled
//! for the same instant are always delivered in scheduling (FIFO)
//! order.
//!
//! ```
//! use simkit::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), Ev::Pong);
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), Ev::Ping);
//! let (t1, e1) = q.pop().unwrap();
//! assert_eq!((t1.as_micros(), e1), (1, Ev::Ping));
//! let (t2, e2) = q.pop().unwrap();
//! assert_eq!((t2.as_micros(), e2), (5, Ev::Pong));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod queue;
pub mod service;
mod station;
pub mod stats;
mod time;

pub use lapobs::{StationId, StationKind};
pub use queue::{EventQueue, QueueBackend, QueueDepthStats};
pub use service::{DeviceOp, FifoSched, JobSpec, MechDetail, Scheduler, ServiceCost, ServiceModel};
pub use station::{Priority, StartedJob, Station, StationStats};
pub use time::{SimDuration, SimTime};
