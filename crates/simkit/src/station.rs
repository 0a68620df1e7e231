//! A single-server service station with non-preemptive priority
//! queueing.
//!
//! This models a disk (or any serially-served resource) the way the
//! paper does: one operation in service at a time, demand operations
//! queued ahead of prefetch operations ("prefetching a block will never
//! be done if other operations are waiting to be done on the same
//! disk"), and FIFO order within a priority class. Service is
//! non-preemptive: a prefetch already on the platter finishes even if a
//! demand request arrives meanwhile.
//!
//! The caller submits a [`JobSpec`] and a [`ServiceModel`] prices the
//! job *when it starts service* ([`arrive_job`](Station::arrive_job)),
//! so the cost can depend on device state such as head position. The
//! paper's fixed per-operation cost is the model that ignores that
//! state.
//!
//! Within a priority class, the pluggable [`Scheduler`] decides which
//! waiting job starts next (FIFO by default; SSTF/C-LOOK live in
//! `devmodel`). The class is always chosen first, so reordering can
//! never serve a prefetch while demand work waits.
//!
//! The station is passive: `arrive_job` and `complete_job` tell the
//! caller *when* the started job will finish, and the caller schedules
//! that completion on its [`EventQueue`](crate::EventQueue).

use std::collections::{BTreeMap, VecDeque};

use lapobs::{Event, Recorder, StationId};

use crate::service::{FifoSched, JobSpec, Scheduler, ServiceCost, ServiceModel};
use crate::stats::TimeWeighted;
use crate::time::{SimDuration, SimTime};

/// Scheduling priority of a job. **Lower values are served first.**
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(pub u8);

impl Priority {
    /// Demand (application-issued) operations — served first.
    pub const DEMAND: Priority = Priority(0);
    /// Prefetch operations — served only when no demand work waits.
    pub const PREFETCH: Priority = Priority(1);
}

/// A job the station has just started serving. The caller must arrange
/// to call [`Station::complete_job`] at `completes_at`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StartedJob<T> {
    /// Caller-supplied identifier for the job.
    pub tag: T,
    /// Demand read the job serves ([`lapobs::NO_RID`] when none) —
    /// copied from the job spec so callers need not look it up again.
    pub rid: u32,
    /// Absolute time at which service finishes.
    pub completes_at: SimTime,
    /// How long the job waited in queue before starting (zero when it
    /// started on arrival).
    pub wait: SimDuration,
    /// The priced service cost, including any mechanical breakdown —
    /// the raw material for per-request latency attribution.
    pub cost: ServiceCost,
}

struct Waiting<T> {
    tag: T,
    spec: JobSpec,
    enqueued_at: SimTime,
}

/// Aggregate statistics kept by a [`Station`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct StationStats {
    /// Jobs that have completed service.
    pub completed: u64,
    /// Total time the server has been busy.
    pub busy: SimDuration,
    /// Total time completed-or-started jobs spent waiting in queue.
    pub waited: SimDuration,
    /// Jobs served out of arrival order by the scheduler.
    pub reordered: u64,
    /// In-service jobs aborted mid-service (outage timeout); the
    /// unserved remainder is un-credited from `busy`.
    pub aborted: u64,
    /// Jobs that began service, whether immediately on arrival or
    /// dispatched out of the queue. A deterministic cost counter:
    /// `dispatched - aborted == completed` once the station drains.
    pub dispatched: u64,
}

impl StationStats {
    /// Register all counters under `prefix.` in a metrics registry.
    pub fn register_into(&self, reg: &mut lapobs::Registry, prefix: &str) {
        reg.counter(format!("{prefix}.completed"), self.completed);
        reg.gauge(format!("{prefix}.busy_s"), self.busy.as_secs_f64());
        reg.gauge(format!("{prefix}.waited_s"), self.waited.as_secs_f64());
        reg.counter(format!("{prefix}.reordered"), self.reordered);
        reg.counter(format!("{prefix}.aborted"), self.aborted);
        reg.counter(format!("{prefix}.dispatched"), self.dispatched);
    }
}

/// A single server with priority classes and a pluggable dispatch order
/// (FIFO by default) within each class.
///
/// ```
/// use lapobs::{NoopRecorder, NO_RID};
/// use simkit::{
///     DeviceOp, JobSpec, Priority, ServiceCost, ServiceModel, SimDuration, SimTime, Station,
///     StationId,
/// };
///
/// /// Every job takes 10 ms.
/// struct Flat;
/// impl ServiceModel for Flat {
///     fn service(&mut self, _now: SimTime, _job: &JobSpec) -> ServiceCost {
///         ServiceCost::flat(SimDuration::from_millis(10))
///     }
/// }
///
/// let spec = JobSpec { op: DeviceOp::Read, pos: None, bytes: 8192, blocks: 1, rid: NO_RID };
/// let mut disk: Station<&str> = Station::new(StationId::disk(0));
/// let job = disk
///     .arrive_job(SimTime::ZERO, Priority::DEMAND, spec, "read", &mut Flat, &mut NoopRecorder)
///     .expect("idle disk starts immediately");
/// // A prefetch queued behind it waits...
/// assert!(disk
///     .arrive_job(SimTime::ZERO, Priority::PREFETCH, spec, "prefetch", &mut Flat, &mut NoopRecorder)
///     .is_none());
/// // ...and starts when the demand read completes.
/// let next = disk.complete_job(job.completes_at, &mut Flat, &mut NoopRecorder).unwrap();
/// assert_eq!(next.tag, "prefetch");
/// ```
pub struct Station<T> {
    /// Identity of this station in the observability event stream.
    sid: StationId,
    /// Dispatch order within a priority class.
    sched: Box<dyn Scheduler>,
    /// Completion time, priority class and request id of the
    /// in-service job, if any. The tag itself is not stored: the caller
    /// keeps it inside the completion event it schedules, so storing it
    /// here would only force `T: Clone`.
    current: Option<(SimTime, Priority, u32)>,
    /// Outage hold: while set, arrivals queue even when the server is
    /// idle and nothing is dispatched out of the queue.
    held: bool,
    /// Waiting jobs, keyed by priority (lower key = served first).
    queues: BTreeMap<Priority, VecDeque<Waiting<T>>>,
    queued_len: usize,
    /// Time-weighted queue length (waiting jobs only).
    queue_track: TimeWeighted,
    stats: StationStats,
}

impl<T> Station<T> {
    /// Create an idle station identified as `sid`, serving each
    /// priority class in FIFO order.
    pub fn new(sid: StationId) -> Self {
        Self::with_scheduler(sid, Box::new(FifoSched))
    }

    /// Create an idle station with an explicit within-class dispatch
    /// order.
    pub fn with_scheduler(sid: StationId, sched: Box<dyn Scheduler>) -> Self {
        Station {
            sid,
            sched,
            current: None,
            held: false,
            queues: BTreeMap::new(),
            queued_len: 0,
            queue_track: TimeWeighted::new(SimTime::ZERO, 0.0),
            stats: StationStats::default(),
        }
    }

    /// True if a job is currently in service.
    pub fn is_busy(&self) -> bool {
        self.current.is_some()
    }

    /// Number of jobs waiting (not counting the one in service).
    pub fn queue_len(&self) -> usize {
        self.queued_len
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> StationStats {
        self.stats
    }

    /// Submit a model-priced job at time `now`. If the server is idle,
    /// `model` prices the job immediately and it starts; otherwise the
    /// [`JobSpec`] waits and is priced when dispatched (by
    /// [`complete_job`](Self::complete_job)).
    pub fn arrive_job<R: Recorder>(
        &mut self,
        now: SimTime,
        prio: Priority,
        spec: JobSpec,
        tag: T,
        model: &mut dyn ServiceModel,
        rec: &mut R,
    ) -> Option<StartedJob<T>> {
        if self.current.is_none() && !self.held {
            let cost = model.service(now, &spec);
            Some(self.begin_service(now, prio, cost, spec.rid, SimDuration::ZERO, tag, rec))
        } else {
            self.push_waiting(now, prio, spec, tag, rec);
            None
        }
    }

    fn push_waiting<R: Recorder>(
        &mut self,
        now: SimTime,
        prio: Priority,
        spec: JobSpec,
        tag: T,
        rec: &mut R,
    ) {
        self.queues.entry(prio).or_default().push_back(Waiting {
            tag,
            spec,
            enqueued_at: now,
        });
        self.queued_len += 1;
        self.queue_track.set(now, self.queued_len as f64);
        if rec.enabled() {
            rec.record(
                now.as_nanos(),
                Event::QueuePush {
                    station: self.sid,
                    class: prio.0,
                    depth: self.queued_len as u32,
                    rid: spec.rid,
                },
            );
        }
    }

    /// Mark the server busy with a freshly priced job and emit the
    /// opening span (plus the mechanical breakdown, if the cost model
    /// produced one). Jobs started on arrival pass `wait` zero;
    /// dispatches out of the queue pass the queueing delay, which the
    /// returned [`StartedJob`] carries for latency attribution.
    #[allow(clippy::too_many_arguments)]
    fn begin_service<R: Recorder>(
        &mut self,
        now: SimTime,
        prio: Priority,
        cost: ServiceCost,
        rid: u32,
        wait: SimDuration,
        tag: T,
        rec: &mut R,
    ) -> StartedJob<T> {
        let completes_at = now + cost.total;
        self.stats.busy += cost.total;
        self.stats.dispatched += 1;
        self.current = Some((completes_at, prio, rid));
        if rec.enabled() {
            rec.record(
                now.as_nanos(),
                Event::ServiceBegin {
                    station: self.sid,
                    class: prio.0,
                    rid,
                },
            );
            if let Some(mech) = cost.mech {
                rec.record(
                    now.as_nanos(),
                    Event::DiskService {
                        station: self.sid,
                        seek_cylinders: mech.seek_cylinders,
                        rot_wait_ns: mech.rot_wait.as_nanos().min(u32::MAX as u64) as u32,
                        rid,
                    },
                );
            }
        }
        StartedJob {
            tag,
            rid,
            completes_at,
            wait,
            cost,
        }
    }

    /// Report that the in-service job finished at `now` (which must be
    /// the completion time previously returned). Returns the next job
    /// to start, if any, priced by `model` at dispatch time (which also
    /// informs the scheduler's head position); the caller must again
    /// schedule it.
    ///
    /// # Panics
    /// Panics if the station is idle — a completion without a job in
    /// service means the driving loop lost track of the station state.
    pub fn complete_job<R: Recorder>(
        &mut self,
        now: SimTime,
        model: &mut dyn ServiceModel,
        rec: &mut R,
    ) -> Option<StartedJob<T>> {
        self.finish_current(now, rec);
        self.start_next(now, model, rec)
    }

    fn finish_current<R: Recorder>(&mut self, now: SimTime, rec: &mut R) {
        let (completes_at, class, rid) = self
            .current
            .take()
            .expect("Station::complete_job called while idle");
        debug_assert_eq!(completes_at, now, "completion at the wrong time");
        self.stats.completed += 1;
        if rec.enabled() {
            rec.record(
                now.as_nanos(),
                Event::ServiceEnd {
                    station: self.sid,
                    class: class.0,
                    rid,
                },
            );
        }
    }

    fn start_next<R: Recorder>(
        &mut self,
        now: SimTime,
        model: &mut dyn ServiceModel,
        rec: &mut R,
    ) -> Option<StartedJob<T>> {
        if self.held {
            return None;
        }
        // BTreeMap iterates keys in ascending order: lowest value =
        // highest priority first. The class is chosen before the
        // scheduler runs, so reordering never crosses class boundaries.
        let prio = *self
            .queues
            .iter()
            .find(|(_, q)| !q.is_empty())
            .map(|(p, _)| p)?;
        let q = self.queues.get_mut(&prio).unwrap();
        let idx = if self.sched.is_fifo() || q.len() == 1 {
            0
        } else {
            let positions: Vec<Option<u64>> = q.iter().map(|w| w.spec.pos).collect();
            let idx = self.sched.pick(model.position(), &positions);
            debug_assert!(idx < q.len(), "scheduler picked an out-of-range job");
            idx.min(q.len() - 1)
        };
        let job = q.remove(idx).unwrap();
        let rid = job.spec.rid;
        if idx != 0 {
            self.stats.reordered += 1;
            if rec.enabled() {
                rec.record(
                    now.as_nanos(),
                    Event::QueueReorder {
                        station: self.sid,
                        class: prio.0,
                        picked: idx as u32,
                        rid,
                    },
                );
            }
        }
        self.queued_len -= 1;
        self.queue_track.set(now, self.queued_len as f64);
        let wait = now.saturating_since(job.enqueued_at);
        self.stats.waited += wait;
        let cost = model.service(now, &job.spec);
        if rec.enabled() {
            rec.record(
                now.as_nanos(),
                Event::QueuePop {
                    station: self.sid,
                    class: prio.0,
                    depth: self.queued_len as u32,
                    rid,
                },
            );
        }
        Some(self.begin_service(now, prio, cost, rid, wait, job.tag, rec))
    }

    /// Move all waiting jobs matching `pred` to priority `to`,
    /// preserving their relative order and appending them behind jobs
    /// already waiting at `to`. Returns how many jobs moved.
    ///
    /// This models a demand read arriving for a block that is already
    /// queued for prefetch: the pending disk operation is re-queued at
    /// demand priority instead of being issued twice.
    pub fn promote_where(&mut self, to: Priority, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut moved = Vec::new();
        for (&p, q) in self.queues.iter_mut() {
            if p == to {
                continue;
            }
            let mut kept = VecDeque::with_capacity(q.len());
            for w in q.drain(..) {
                if pred(&w.tag) {
                    moved.push(w);
                } else {
                    kept.push_back(w);
                }
            }
            *q = kept;
        }
        let n = moved.len();
        let dst = self.queues.entry(to).or_default();
        for w in moved {
            dst.push_back(w);
        }
        n
    }

    /// Suspend dispatch (an outage window begins): arrivals queue even
    /// when the server is idle, and completions do not start the next
    /// job. The in-service job, if any, is *not* interrupted — use
    /// [`abort_current`](Self::abort_current) for that.
    pub fn hold(&mut self) {
        self.held = true;
    }

    /// End the dispatch hold. The caller should follow up with
    /// [`dispatch_idle`](Self::dispatch_idle) to restart service.
    pub fn release(&mut self) {
        self.held = false;
    }

    /// Abort the in-service job (outage timeout): the server goes idle,
    /// the unserved remainder `completes_at - now` is un-credited from
    /// the busy time, and the job's service span is closed in the
    /// trace. Returns the aborted job's priority class and request id,
    /// or `None` if the station was idle.
    ///
    /// The station does not store the in-service tag (see `current`),
    /// so the *caller* — which holds the tag inside the completion
    /// event it scheduled — must treat that completion as stale and
    /// re-submit the job, e.g. via [`requeue_front`](Self::requeue_front).
    pub fn abort_current<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Option<(Priority, u32)> {
        let (completes_at, prio, rid) = self.current.take()?;
        self.stats.busy -= completes_at.saturating_since(now);
        self.stats.aborted += 1;
        if rec.enabled() {
            rec.record(
                now.as_nanos(),
                Event::ServiceEnd {
                    station: self.sid,
                    class: prio.0,
                    rid,
                },
            );
        }
        Some((prio, rid))
    }

    /// Re-queue a previously aborted job at the *front* of its priority
    /// class, so it is the first job of that class served once dispatch
    /// resumes. Does not start service — call
    /// [`dispatch_idle`](Self::dispatch_idle) after.
    pub fn requeue_front<R: Recorder>(
        &mut self,
        now: SimTime,
        prio: Priority,
        spec: JobSpec,
        tag: T,
        rec: &mut R,
    ) {
        self.push_waiting(now, prio, spec, tag, rec);
        // Move the job just queued at the back to the front.
        self.queues
            .get_mut(&prio)
            .expect("push_waiting created the class queue")
            .rotate_right(1);
    }

    /// Start the next waiting job if the server is idle and not held —
    /// the restart step after [`release`](Self::release) or after a
    /// [`requeue_front`](Self::requeue_front) on an idle station. The
    /// caller must schedule the returned completion as usual.
    pub fn dispatch_idle<R: Recorder>(
        &mut self,
        now: SimTime,
        model: &mut dyn ServiceModel,
        rec: &mut R,
    ) -> Option<StartedJob<T>> {
        if self.current.is_some() {
            return None;
        }
        self.start_next(now, model, rec)
    }

    /// Per-tag overlap of each waiting job's queue time with the window
    /// `[t_down, now]` — the raw material for attributing outage wait
    /// (failover) separately from ordinary queueing. Call at the end of
    /// an outage, before releasing the hold.
    pub fn held_overlap(&self, t_down: SimTime, now: SimTime) -> Vec<(&T, SimDuration)> {
        let mut out = Vec::new();
        for q in self.queues.values() {
            for w in q {
                let from = if w.enqueued_at > t_down {
                    w.enqueued_at
                } else {
                    t_down
                };
                let overlap = now.saturating_since(from);
                if overlap > SimDuration::ZERO {
                    out.push((&w.tag, overlap));
                }
            }
        }
        out
    }

    /// Time-weighted mean queue length over `[0, now]` (waiting jobs
    /// only, not the one in service).
    pub fn mean_queue_len(&self, now: SimTime) -> f64 {
        self.queue_track.mean(now)
    }

    /// Server utilization over `[0, now]`: fraction of time busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        // `busy` counts service already *credited* (including the
        // remainder of an in-service job), so clamp at 1.
        (self.stats.busy.as_nanos() as f64 / now.as_nanos() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{DeviceOp, MechDetail};
    use lapobs::{NoopRecorder, NO_RID};

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }
    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }
    fn sid() -> StationId {
        StationId::disk(0)
    }

    /// A flat model: each job's service time is its `bytes` field, read
    /// as microseconds.
    struct Flat;

    impl ServiceModel for Flat {
        fn service(&mut self, _now: SimTime, job: &JobSpec) -> ServiceCost {
            ServiceCost::flat(d(job.bytes))
        }
    }

    /// Submit a job of `us` µs priced by [`Flat`].
    fn arrive<T>(
        s: &mut Station<T>,
        at: SimTime,
        prio: Priority,
        us: u64,
        tag: T,
    ) -> Option<StartedJob<T>> {
        let spec = JobSpec {
            op: DeviceOp::Read,
            pos: None,
            bytes: us,
            blocks: 1,
            rid: NO_RID,
        };
        s.arrive_job(at, prio, spec, tag, &mut Flat, &mut NoopRecorder)
    }

    fn complete<T>(s: &mut Station<T>, at: SimTime) -> Option<StartedJob<T>> {
        s.complete_job(at, &mut Flat, &mut NoopRecorder)
    }

    #[test]
    fn idle_station_starts_job_immediately() {
        let mut s: Station<&str> = Station::new(sid());
        let started = arrive(&mut s, t(0), Priority::DEMAND, 10, "a").unwrap();
        assert_eq!(started.completes_at, t(10));
        assert!(s.is_busy());
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn busy_station_queues_and_serves_fifo() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        assert!(arrive(&mut s, t(1), Priority::DEMAND, 5, 1).is_none());
        assert!(arrive(&mut s, t(2), Priority::DEMAND, 5, 2).is_none());
        let n1 = complete(&mut s, t(10)).unwrap();
        assert_eq!((n1.tag, n1.completes_at), (1, t(15)));
        let n2 = complete(&mut s, t(15)).unwrap();
        assert_eq!((n2.tag, n2.completes_at), (2, t(20)));
        assert!(complete(&mut s, t(20)).is_none());
        assert_eq!(s.stats().completed, 3);
        assert_eq!(s.stats().reordered, 0);
    }

    #[test]
    fn demand_overtakes_prefetch() {
        let mut s: Station<&str> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, "busy").unwrap();
        arrive(&mut s, t(1), Priority::PREFETCH, 5, "pf");
        arrive(&mut s, t(2), Priority::DEMAND, 5, "demand");
        let next = complete(&mut s, t(10)).unwrap();
        assert_eq!(next.tag, "demand");
        let after = complete(&mut s, t(15)).unwrap();
        assert_eq!(after.tag, "pf");
    }

    #[test]
    fn service_is_non_preemptive() {
        let mut s: Station<&str> = Station::new(sid());
        arrive(&mut s, t(0), Priority::PREFETCH, 10, "pf").unwrap();
        // Demand arrival does not interrupt the prefetch in service.
        arrive(&mut s, t(1), Priority::DEMAND, 2, "demand");
        assert!(s.is_busy());
        let next = complete(&mut s, t(10)).unwrap();
        assert_eq!(next.tag, "demand");
    }

    #[test]
    fn promote_moves_prefetch_to_demand_class() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        arrive(&mut s, t(1), Priority::PREFETCH, 5, 10);
        arrive(&mut s, t(2), Priority::PREFETCH, 5, 11);
        arrive(&mut s, t(3), Priority::DEMAND, 5, 20);
        assert_eq!(s.promote_where(Priority::DEMAND, |&tag| tag == 11), 1);
        // Order now: 20 (was demand), 11 (promoted behind existing), 10.
        assert_eq!(complete(&mut s, t(10)).unwrap().tag, 20);
        assert_eq!(complete(&mut s, t(15)).unwrap().tag, 11);
        assert_eq!(complete(&mut s, t(20)).unwrap().tag, 10);
    }

    #[test]
    fn wait_time_accounting() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        arrive(&mut s, t(4), Priority::DEMAND, 1, 1);
        complete(&mut s, t(10));
        // Job 1 waited from t=4 to t=10.
        assert_eq!(s.stats().waited, d(6));
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        complete(&mut s, t(10));
        assert!((s.utilization(t(20)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn mean_queue_length_is_time_weighted() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        // One job waits from t=0 to t=10, then none until t=20.
        arrive(&mut s, t(0), Priority::DEMAND, 10, 1);
        complete(&mut s, t(10));
        complete(&mut s, t(20));
        assert!((s.mean_queue_len(t(20)) - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn completing_idle_station_panics() {
        let mut s: Station<u32> = Station::new(sid());
        complete(&mut s, t(0));
    }

    /// A toy model: service = 1 µs per unit of distance from the head
    /// to the job, plus 1 µs; the head moves to the job's position.
    struct ToyDisk {
        head: u64,
    }

    impl ServiceModel for ToyDisk {
        fn position(&self) -> u64 {
            self.head
        }
        fn service(&mut self, _now: SimTime, job: &JobSpec) -> ServiceCost {
            let pos = job.pos.unwrap_or(self.head);
            let dist = pos.abs_diff(self.head);
            self.head = pos;
            ServiceCost {
                total: d(1 + dist),
                retry: SimDuration::ZERO,
                mech: Some(MechDetail {
                    seek_cylinders: dist as u32,
                    rot_wait: SimDuration::ZERO,
                }),
            }
        }
    }

    fn read_at(pos: u64) -> JobSpec {
        JobSpec {
            op: DeviceOp::Read,
            pos: Some(pos),
            bytes: 8192,
            blocks: 1,
            rid: NO_RID,
        }
    }

    /// Submit a read at `pos` priced by `disk`.
    fn arrive_at<T>(
        s: &mut Station<T>,
        disk: &mut ToyDisk,
        at: SimTime,
        prio: Priority,
        pos: u64,
        tag: T,
    ) -> Option<StartedJob<T>> {
        s.arrive_job(at, prio, read_at(pos), tag, disk, &mut NoopRecorder)
    }

    #[test]
    fn modelled_jobs_are_priced_at_dispatch_time() {
        let mut disk = ToyDisk { head: 0 };
        let mut s: Station<u32> = Station::new(sid());
        // Starts immediately: distance 5 → 6 µs.
        let j = arrive_at(&mut s, &mut disk, t(0), Priority::DEMAND, 5, 0).unwrap();
        assert_eq!(j.completes_at, t(6));
        // Queued while busy; priced only when it starts, from the head
        // position the first job left behind (5 → 7 is distance 2).
        assert!(arrive_at(&mut s, &mut disk, t(1), Priority::DEMAND, 7, 1).is_none());
        let n = s.complete_job(t(6), &mut disk, &mut NoopRecorder).unwrap();
        assert_eq!((n.tag, n.completes_at), (1, t(9)));
        assert_eq!(disk.head, 7);
    }

    /// A scheduler that always serves the job closest to the head.
    struct Nearest;
    impl Scheduler for Nearest {
        fn pick(&mut self, head: u64, queue: &[Option<u64>]) -> usize {
            queue
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.map_or(0, |p| p.abs_diff(head)), *i))
                .map(|(i, _)| i)
                .unwrap()
        }
    }

    #[test]
    fn scheduler_reorders_within_class_only() {
        let mut disk = ToyDisk { head: 0 };
        let mut s: Station<u32> = Station::with_scheduler(sid(), Box::new(Nearest));
        arrive_at(&mut s, &mut disk, t(0), Priority::DEMAND, 0, 0).unwrap();
        // Prefetch at distance 1, demands at distance 90 and 80.
        arrive_at(&mut s, &mut disk, t(1), Priority::PREFETCH, 1, 10);
        arrive_at(&mut s, &mut disk, t(2), Priority::DEMAND, 90, 20);
        arrive_at(&mut s, &mut disk, t(3), Priority::DEMAND, 80, 21);
        // Demand class drains first even though the prefetch is nearer,
        // and within the class the nearer demand (80) wins.
        let n = s.complete_job(t(1), &mut disk, &mut NoopRecorder).unwrap();
        assert_eq!(n.tag, 21);
        assert_eq!(s.stats().reordered, 1);
        let n = s
            .complete_job(n.completes_at, &mut disk, &mut NoopRecorder)
            .unwrap();
        assert_eq!(n.tag, 20);
        let n = s
            .complete_job(n.completes_at, &mut disk, &mut NoopRecorder)
            .unwrap();
        assert_eq!(n.tag, 10);
    }

    #[test]
    fn held_station_queues_idle_arrivals() {
        let mut s: Station<u32> = Station::new(sid());
        s.hold();
        // Idle but held: the arrival queues instead of starting.
        assert!(arrive(&mut s, t(0), Priority::DEMAND, 10, 1).is_none());
        assert_eq!(s.queue_len(), 1);
        assert!(!s.is_busy());
        s.release();
        let j = s.dispatch_idle(t(5), &mut Flat, &mut NoopRecorder).unwrap();
        assert_eq!((j.tag, j.completes_at, j.wait), (1, t(15), d(5)));
    }

    #[test]
    fn hold_defers_dispatch_at_completion() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 10, 0).unwrap();
        arrive(&mut s, t(1), Priority::DEMAND, 5, 1);
        s.hold();
        // The in-service job finishes (non-preemptive) but the queued
        // one must wait out the hold.
        assert!(complete(&mut s, t(10)).is_none());
        assert_eq!(s.queue_len(), 1);
        s.release();
        let j = s
            .dispatch_idle(t(20), &mut Flat, &mut NoopRecorder)
            .unwrap();
        assert_eq!(j.tag, 1);
        assert_eq!(j.wait, d(19));
    }

    #[test]
    fn abort_requeue_serves_aborted_job_first() {
        let mut disk = ToyDisk { head: 0 };
        let mut s: Station<u32> = Station::new(sid());
        arrive_at(&mut s, &mut disk, t(0), Priority::DEMAND, 5, 7).unwrap();
        arrive_at(&mut s, &mut disk, t(1), Priority::DEMAND, 9, 8);
        // Outage at t=2: abort the in-service job, hold the station.
        let (prio, _rid) = s.abort_current(t(2), &mut NoopRecorder).unwrap();
        assert_eq!(prio, Priority::DEMAND);
        assert!(!s.is_busy());
        assert_eq!(s.stats().aborted, 1);
        // Only the 2 µs actually served stays credited as busy time.
        assert_eq!(s.stats().busy, d(2));
        s.hold();
        // The caller re-submits the aborted job at the front.
        s.requeue_front(t(2), prio, read_at(5), 7, &mut NoopRecorder);
        assert_eq!(s.queue_len(), 2);
        // Outage ends: the aborted job is served before the later one.
        s.release();
        let j = s
            .dispatch_idle(t(12), &mut disk, &mut NoopRecorder)
            .unwrap();
        assert_eq!(j.tag, 7);
        let j = s
            .complete_job(j.completes_at, &mut disk, &mut NoopRecorder)
            .unwrap();
        assert_eq!(j.tag, 8);
    }

    #[test]
    fn abort_on_idle_station_is_none() {
        let mut s: Station<u32> = Station::new(sid());
        assert!(s.abort_current(t(0), &mut NoopRecorder).is_none());
    }

    #[test]
    fn held_overlap_attributes_outage_wait() {
        let mut s: Station<u32> = Station::new(sid());
        arrive(&mut s, t(0), Priority::DEMAND, 100, 0).unwrap();
        // Job 1 queued before the outage, job 2 during it.
        arrive(&mut s, t(1), Priority::DEMAND, 5, 1);
        s.hold(); // outage at t=10
        arrive(&mut s, t(12), Priority::DEMAND, 5, 2);
        let overlaps = s.held_overlap(t(10), t(20));
        assert_eq!(overlaps.len(), 2);
        assert_eq!(
            overlaps
                .iter()
                .map(|&(tag, ov)| (*tag, ov))
                .collect::<Vec<_>>(),
            vec![(1, d(10)), (2, d(8))]
        );
    }

    #[test]
    fn reorder_emits_event_and_stat() {
        let mut disk = ToyDisk { head: 0 };
        let mut s: Station<u32> = Station::with_scheduler(sid(), Box::new(Nearest));
        arrive_at(&mut s, &mut disk, t(0), Priority::DEMAND, 0, 0).unwrap();
        arrive_at(&mut s, &mut disk, t(1), Priority::DEMAND, 50, 1);
        arrive_at(&mut s, &mut disk, t(2), Priority::DEMAND, 2, 2);
        let mut rec = lapobs::TraceRecorder::new();
        let n = s.complete_job(t(1), &mut disk, &mut rec).unwrap();
        assert_eq!(n.tag, 2);
        assert!(rec
            .events()
            .any(|(_, e)| matches!(e, Event::QueueReorder { picked: 1, .. })));
        assert!(rec
            .events()
            .any(|(_, e)| matches!(e, Event::DiskService { .. })));
    }
}
