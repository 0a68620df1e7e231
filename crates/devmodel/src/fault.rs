//! Fault hooks at dispatch pricing.
//!
//! A station prices a job the moment it starts service (see
//! [`simkit::ServiceModel`]). [`FaultedModel`] wraps any inner model
//! and lets a [`DispatchFaults`] implementation add a *retry
//! surcharge* at exactly that point: the extra time the device spends
//! on failed attempts and backoff before the final successful attempt.
//! The surcharge travels in [`ServiceCost::retry`], so the span
//! accounting downstream can attribute it separately while the total
//! stays exact.
//!
//! The concrete fault model (seeded draws, burst windows, retry
//! budgets) lives in the `faultkit` crate; this module only defines
//! the contract, mirroring how `simkit` hosts [`simkit::ServiceModel`]
//! without knowing about disks.

use simkit::{JobSpec, ServiceCost, ServiceModel, SimDuration, SimTime};

/// Adds fault-induced retry time to a job priced at dispatch time.
///
/// Implementations must be deterministic in their own state and the
/// arguments, and must return [`SimDuration::ZERO`] without consuming
/// any randomness when no fault source is configured — that is what
/// keeps zero-fault runs bit-identical to runs without a fault layer.
pub trait DispatchFaults {
    /// Surcharge for a job whose successful attempt costs `base`,
    /// starting at `now`: the summed cost of the failed attempts plus
    /// backoff, or zero when no fault fires.
    fn dispatch_surcharge(
        &mut self,
        now: SimTime,
        job: &JobSpec,
        base: &ServiceCost,
    ) -> SimDuration;
}

/// A [`ServiceModel`] wrapper that prices through `inner` and then
/// applies a [`DispatchFaults`] surcharge. The surcharge is added to
/// both `total` and `retry` of the returned cost, so the mechanical
/// breakdown of the successful attempt is untouched.
pub struct FaultedModel<'a> {
    /// The fault-free disk pricing model.
    pub inner: &'a mut dyn ServiceModel,
    /// The fault source consulted after pricing.
    pub faults: &'a mut dyn DispatchFaults,
}

impl ServiceModel for FaultedModel<'_> {
    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn service(&mut self, now: SimTime, job: &JobSpec) -> ServiceCost {
        let mut cost = self.inner.service(now, job);
        let extra = self.faults.dispatch_surcharge(now, job, &cost);
        if extra > SimDuration::ZERO {
            cost.total += extra;
            cost.retry += extra;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;

    struct EveryOther {
        calls: u64,
    }

    impl DispatchFaults for EveryOther {
        fn dispatch_surcharge(
            &mut self,
            _now: SimTime,
            _job: &JobSpec,
            base: &ServiceCost,
        ) -> SimDuration {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                base.total + SimDuration::from_millis(1)
            } else {
                SimDuration::ZERO
            }
        }
    }

    fn job() -> JobSpec {
        JobSpec {
            op: simkit::DeviceOp::Read,
            pos: None,
            bytes: 8192,
            blocks: 1,
            rid: 0,
        }
    }

    #[test]
    fn surcharge_lands_in_total_and_retry() {
        let r = SimDuration::from_millis(10);
        let mut inner = DiskModel::fixed(r, r, SimDuration::ZERO);
        let mut faults = EveryOther { calls: 0 };
        let mut m = FaultedModel {
            inner: &mut inner,
            faults: &mut faults,
        };
        let clean = m.service(SimTime::ZERO, &job());
        assert_eq!(clean.total, r);
        assert_eq!(clean.retry, SimDuration::ZERO);
        let faulted = m.service(SimTime::ZERO, &job());
        assert_eq!(faulted.retry, r + SimDuration::from_millis(1));
        assert_eq!(faulted.total, r + faulted.retry);
        // The successful attempt's breakdown is untouched.
        assert_eq!(faulted.mech, clean.mech);
    }
}
