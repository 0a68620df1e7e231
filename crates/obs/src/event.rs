//! The typed simulation event model.
//!
//! Events are small `Copy` values with plain-integer ids so they can be
//! emitted from any crate in the workspace without pulling in that
//! crate's types. Timestamps travel separately (see
//! [`Recorder::record`](crate::Recorder::record)) as simulated
//! nanoseconds.

/// A simulated timestamp in nanoseconds since the start of the run.
pub type Nanos = u64;

/// Sentinel request id for events that cannot be attributed to one
/// demand read (write-backs, sweeps, background prefetch refills).
///
/// Real ids are allocated densely from zero by the `lap-core` event
/// loop — one per demand read, including pure cache hits — and threaded
/// through every layer so a trace can be grouped into causal spans.
pub const NO_RID: u32 = u32::MAX;

/// What kind of service station an event refers to. Every station the
/// simulator models is a disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StationKind {
    /// A disk (one per storage node).
    Disk,
}

/// Identifies one service station (e.g. disk 3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StationId {
    /// The station family.
    pub kind: StationKind,
    /// Index within the family (the disk number).
    pub index: u32,
}

impl StationId {
    /// The id of disk `index`.
    pub const fn disk(index: u32) -> Self {
        StationId {
            kind: StationKind::Disk,
            index,
        }
    }
}

/// Why a prefetch walk stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkStopReason {
    /// The predictor ran out of predictions (end of file / no edge).
    Exhausted,
    /// The per-demand walk budget was used up.
    Budget,
    /// A long run of already-cached blocks ended the walk early.
    CachedRun,
}

/// One simulation event. Every variant is flat `Copy` data: recording
/// an event never allocates.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Event {
    /// A job joined a station queue (the server was busy). `depth` is
    /// the queue length after the push.
    QueuePush {
        /// Station whose queue grew.
        station: StationId,
        /// Priority class of the queued job (0 = demand, 1 =
        /// write-back, 2 = prefetch).
        class: u8,
        /// Queue length after the push.
        depth: u32,
        /// Demand read the job serves ([`NO_RID`] when none).
        rid: u32,
    },
    /// A queued job left the queue to start service.
    QueuePop {
        /// Station whose queue shrank.
        station: StationId,
        /// Priority class of the dequeued job.
        class: u8,
        /// Queue length after the pop.
        depth: u32,
        /// Demand read the job serves ([`NO_RID`] when none).
        rid: u32,
    },
    /// A station began serving a job (span opens).
    ServiceBegin {
        /// The serving station.
        station: StationId,
        /// Priority class of the job being served.
        class: u8,
        /// Demand read the job serves ([`NO_RID`] when none).
        rid: u32,
    },
    /// A station finished serving a job (span closes).
    ServiceEnd {
        /// The serving station.
        station: StationId,
        /// Priority class of the finished job.
        class: u8,
        /// Demand read the job served ([`NO_RID`] when none).
        rid: u32,
    },
    /// Sampled depth of the central simulation event list.
    SimQueueDepth {
        /// Pending events after the sample point.
        depth: u32,
    },
    /// A geometry-aware disk model costed one operation: the mechanical
    /// breakdown of the service time (the transfer part is implicit in
    /// the surrounding `ServiceBegin`/`ServiceEnd` span).
    DiskService {
        /// The serving disk.
        station: StationId,
        /// Cylinders the arm travelled to reach the target.
        seek_cylinders: u32,
        /// Rotational wait after the seek, in nanoseconds (always well
        /// under one revolution, so `u32` never saturates).
        rot_wait_ns: u32,
        /// Demand read the priced job serves ([`NO_RID`] when none).
        rid: u32,
    },
    /// A request scheduler served a job out of arrival order (SSTF,
    /// C-LOOK). Only reorders *within* a priority class — the
    /// demand-before-prefetch rule is structural.
    QueueReorder {
        /// The station whose queue was reordered.
        station: StationId,
        /// Priority class the pick happened in.
        class: u8,
        /// Arrival-order index of the job that was served (≥ 1; index 0
        /// would be FIFO order and is not reported).
        picked: u32,
        /// Demand read of the picked job ([`NO_RID`] when none).
        rid: u32,
    },

    /// A demand access hit in the requesting node's own buffers.
    CacheHitLocal {
        /// The requesting node.
        node: u32,
        /// The demand read performing the lookup.
        rid: u32,
    },
    /// A demand access was served from another node's buffers.
    CacheHitRemote {
        /// The requesting node.
        node: u32,
        /// The node whose copy served the request.
        holder: u32,
        /// The demand read performing the lookup.
        rid: u32,
    },
    /// A demand access missed everywhere and goes to disk.
    CacheMiss {
        /// The requesting node.
        node: u32,
        /// The demand read performing the lookup.
        rid: u32,
    },
    /// A block was inserted into the cache.
    CacheInsert {
        /// The node receiving the copy.
        node: u32,
        /// True when the insert was prefetch-initiated.
        prefetch: bool,
    },
    /// A block copy left the cache.
    CacheEvict {
        /// The node that lost the copy.
        node: u32,
        /// The copy was dirty (a write-back is due).
        dirty: bool,
        /// The copy was prefetched and never used — a materialized
        /// miss-prediction (§5.2).
        wasted_prefetch: bool,
    },
    /// Singlet copies were forwarded to a peer (xFS N-chance).
    CacheForward {
        /// How many forwards happened during this cache operation.
        count: u32,
    },
    /// Singlets whose recirculation count expired were dropped.
    CacheForwardDrop {
        /// How many drops happened during this cache operation.
        count: u32,
    },
    /// Stale copies were invalidated by a write.
    CacheInvalidate {
        /// How many copies were invalidated.
        count: u32,
    },

    /// An aggressive walk started on a fresh prediction path.
    WalkStart {
        /// The file being walked.
        file: u32,
        /// The block the walk starts from.
        block: u64,
        /// The demand read that triggered the walk.
        rid: u32,
        /// Walk generation (increments on every start/restart).
        gen: u32,
    },
    /// The walk was restarted because the application left the
    /// predicted path (§3.1's restart rule).
    WalkRestart {
        /// The file being walked.
        file: u32,
        /// The demand block the walk restarts from.
        block: u64,
        /// The demand read that triggered the restart.
        rid: u32,
        /// Walk generation (increments on every start/restart).
        gen: u32,
    },
    /// The walk stopped.
    WalkStop {
        /// The file that was being walked.
        file: u32,
        /// Why it stopped.
        reason: WalkStopReason,
    },
    /// A demand request fell off the predicted path — a predictor
    /// miss-prediction observed at demand time.
    Mispredict {
        /// The file.
        file: u32,
        /// The off-path demand block.
        block: u64,
        /// The off-path demand read.
        rid: u32,
    },
    /// The engine issued a prefetch for a block.
    PrefetchIssue {
        /// The file.
        file: u32,
        /// The block being prefetched.
        block: u64,
        /// Parent demand read whose walk issued this prefetch.
        rid: u32,
        /// Walk generation the prefetch belongs to.
        gen: u32,
    },
    /// The engine issued an extent-granular prefetch batch: `blocks`
    /// contiguous blocks of one extent fetched as a single multi-block
    /// disk job. A per-block [`PrefetchIssue`](Event::PrefetchIssue)
    /// still accompanies every member block; this event marks the batch
    /// boundary so a trace can attribute coverage to batching.
    ExtentIssue {
        /// The file.
        file: u32,
        /// First block of the batch.
        first_block: u64,
        /// Member blocks fetched by the single disk job.
        blocks: u32,
        /// Parent demand read whose walk issued this batch.
        rid: u32,
    },
    /// A demand arrived for a block whose prefetch was still in flight;
    /// the demand absorbed it.
    PrefetchAbsorbed {
        /// The file.
        file: u32,
        /// The absorbed block.
        block: u64,
        /// The absorbing demand read.
        rid: u32,
    },

    /// The write-back daemon queued one dirty block to disk.
    WriteBack {
        /// The file the block belongs to.
        file: u32,
        /// The block being written.
        block: u64,
    },
    /// A periodic write-back sweep fired.
    SweepStart {
        /// Number of dirty blocks collected by the sweep.
        dirty: u32,
    },

    /// A dispatch drew transient disk errors: the priced job carries
    /// `retry_us` of failed attempts plus backoff on top of its
    /// successful attempt.
    FaultInjected {
        /// The faulting disk.
        disk: u32,
        /// Retry surcharge in microseconds (saturating).
        retry_us: u32,
        /// Demand read the job serves ([`NO_RID`] when none).
        rid: u32,
    },
    /// A disk outage aborted the in-service job; the event loop
    /// re-queues it at the front of its class (timeout-and-failover).
    Failover {
        /// The disk whose job was aborted.
        disk: u32,
        /// Demand read of the aborted job ([`NO_RID`] when none).
        rid: u32,
    },
    /// A disk outage window opened (`up: false`) or closed
    /// (`up: true`).
    DiskOutage {
        /// The affected disk.
        disk: u32,
        /// True when the disk comes back.
        up: bool,
    },
    /// A cache node dropped out of the cooperative cache: degraded
    /// mode begins (PAFS fails the node's files over to the next
    /// server; xFS stops forwarding to it).
    DegradedEnter {
        /// The node that went down.
        node: u32,
    },
    /// A cache node rejoined the cooperative cache.
    DegradedExit {
        /// The node that came back.
        node: u32,
    },
    /// Network faults hit a remote delivery: `lost` attempts re-paid
    /// the transfer and/or the delivery drew an extra delay.
    NetFault {
        /// Lost attempts (bounded by the class retry budget).
        lost: u8,
        /// True when the extra propagation delay fired.
        delayed: bool,
        /// The demand read being delivered ([`NO_RID`] when none).
        rid: u32,
    },

    /// A read request completed.
    ReadDone {
        /// The issuing process.
        proc: u32,
        /// The node it runs on.
        node: u32,
        /// Wall-clock (simulated) latency of the whole request.
        latency: Nanos,
        /// The completed demand read.
        rid: u32,
    },
    /// A write request completed.
    WriteDone {
        /// The issuing process.
        proc: u32,
        /// The node it runs on.
        node: u32,
        /// Wall-clock (simulated) latency of the whole request.
        latency: Nanos,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_small_copy_values() {
        // Recording must stay allocation-free; a fat event enum would
        // bloat the ring buffer. 24 bytes is the current layout even
        // with the request-id/generation causal fields.
        assert!(std::mem::size_of::<Event>() <= 24);
        let e = Event::CacheMiss { node: 3, rid: 7 };
        let f = e; // Copy
        assert_eq!(e, f);
    }
}
