//! Dispatch-time service models and pluggable request schedulers.
//!
//! A `latency + size/bandwidth` cost is the same whenever a request
//! starts, but geometry is not: on a real disk the cost of a request
//! depends on where the head is *when the request starts*, i.e. on
//! every job served in between. So the [`Station`](crate::Station)
//! takes its cost decision at dispatch time, through two traits:
//!
//! * [`ServiceModel`] — computes a [`ServiceCost`] for a [`JobSpec`]
//!   the moment the job starts service, advancing its own internal
//!   state (head position). The concrete disk models live in the
//!   `devmodel` crate; `simkit` only defines the contract so the
//!   station can consume it without a dependency cycle.
//! * [`Scheduler`] — picks which waiting job of the *highest-priority
//!   class* is served next. The class is always chosen first by the
//!   station (demand before write-back before prefetch, the paper's §4
//!   rule), so a scheduler can only reorder within a class.
//!
//! [`FifoSched`] is the built-in arrival-order discipline and the
//! default of every station; its `is_fifo()` fast path keeps the
//! classic FIFO dispatch allocation-free.

use crate::time::{SimDuration, SimTime};

/// What a station job asks of the device.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeviceOp {
    /// Read `bytes` from position `pos`.
    Read,
    /// Write `bytes` to position `pos`.
    Write,
}

/// Device-level description of a job, consumed by a [`ServiceModel`]
/// at dispatch time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// Operation kind.
    pub op: DeviceOp,
    /// Linear device position (e.g. the first LBA of the target
    /// block); `None` for position-independent jobs.
    pub pos: Option<u64>,
    /// Bytes moved by the job.
    pub bytes: u64,
    /// Device blocks covered by the job, laid out contiguously from
    /// `pos`. `1` for ordinary single-block jobs; a multi-block job
    /// pays one positioning cost and then a contiguous transfer of
    /// `bytes`.
    pub blocks: u32,
    /// Demand read this job serves ([`lapobs::NO_RID`] when none —
    /// write-backs, background prefetch), threaded into the station's
    /// queue/service events so a trace can attribute device time to
    /// the request that paid for it.
    pub rid: u32,
}

/// Mechanical breakdown of a geometry-aware service, carried inside
/// [`ServiceCost`] for observability.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MechDetail {
    /// Cylinders the arm travelled.
    pub seek_cylinders: u32,
    /// Rotational wait after the seek.
    pub rot_wait: SimDuration,
}

/// What serving one job costs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceCost {
    /// Total service time (the station occupies the server this long).
    pub total: SimDuration,
    /// Portion of `total` spent on failed attempts and backoff injected
    /// by a fault model at dispatch time. Always zero when no fault
    /// model wraps the pricing, so fault-free runs are unchanged.
    pub retry: SimDuration,
    /// Mechanical breakdown, if the model computes one. Flat-cost
    /// models return `None`, which also suppresses the per-operation
    /// `DiskService` trace event.
    pub mech: Option<MechDetail>,
}

impl ServiceCost {
    /// A flat cost with no mechanical breakdown.
    pub fn flat(total: SimDuration) -> Self {
        ServiceCost {
            total,
            retry: SimDuration::ZERO,
            mech: None,
        }
    }
}

/// Computes service times at dispatch time, advancing internal device
/// state (e.g. head position) as jobs are served.
pub trait ServiceModel {
    /// Current device position in the same linear space as
    /// [`JobSpec::pos`], for seek-aware schedulers.
    fn position(&self) -> u64 {
        0
    }

    /// Cost of serving `job` starting at `now`. Must be deterministic
    /// in `(self, now, job)` and update the model's state.
    fn service(&mut self, now: SimTime, job: &JobSpec) -> ServiceCost;
}

/// Chooses which waiting job of the highest-priority class a station
/// serves next.
pub trait Scheduler: Send {
    /// Given the device's current `head` position and the queued jobs'
    /// positions in arrival order (`None` = position-independent),
    /// return the index of the job to serve next. `queue` is never
    /// empty and the result must be a valid index.
    fn pick(&mut self, head: u64, queue: &[Option<u64>]) -> usize;

    /// True if this scheduler always picks index 0. Lets the station
    /// skip building the position slice on the hot path.
    fn is_fifo(&self) -> bool {
        false
    }
}

/// Arrival-order service — the default discipline of every station and
/// the baseline the reordering schedulers must degrade to.
#[derive(Clone, Copy, Default, Debug)]
pub struct FifoSched;

impl Scheduler for FifoSched {
    fn pick(&mut self, _head: u64, _queue: &[Option<u64>]) -> usize {
        0
    }

    fn is_fifo(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_always_picks_the_oldest() {
        let mut s = FifoSched;
        assert!(s.is_fifo());
        assert_eq!(s.pick(100, &[Some(900), Some(100), None]), 0);
    }

    #[test]
    fn flat_cost_has_no_breakdown() {
        let c = ServiceCost::flat(SimDuration::from_micros(10));
        assert_eq!(c.total.as_micros(), 10);
        assert_eq!(c.retry, SimDuration::ZERO);
        assert!(c.mech.is_none());
    }
}
