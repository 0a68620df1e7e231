//! The trace-driven file-system simulation.
//!
//! This module plays the role DIMEMAS plays in the paper: it replays
//! per-process demand traces against a machine model (CPU bursts,
//! network, priority-queued disks) with a cooperative cache and a
//! prefetching subsystem in the middle, and measures what the paper
//! measures — per-request read times and disk traffic.
//!
//! ## Request life cycle
//!
//! A read request touching blocks `B` at time `t0`:
//!
//! 1. every block is classified against the cooperative cache
//!    (local hit / remote hit / miss — the cache updates recency and
//!    prefetch-usage state as a side effect);
//! 2. missing blocks join an in-flight fetch if one exists in their
//!    coalescing scope (global for PAFS, per-node for xFS; a demand
//!    request joining a *prefetch* fetch promotes it to demand priority
//!    on the disk queue), otherwise a demand-priority disk read is
//!    issued;
//! 3. the prefetcher for the file (PAFS: one per file, at the file's
//!    server; xFS: one per (node, file)) observes the request and is
//!    pumped for new prefetch blocks, which are issued at the lowest
//!    disk priority;
//! 4. when the last missing block lands, the data is handed to the
//!    requester (memory copy if everything was local, a network
//!    transfer otherwise) and the request's latency is recorded.
//!
//! Writes are write-allocate with no fetch-on-write: they dirty cache
//! blocks and cost a transfer, but wait for no disk — matching the
//! paper's observation that writes "are not specially affected" (§5).
//! Dirty blocks reach the disk through the periodic write-back sweep
//! (§5.3) and through dirty evictions, at a middle disk priority:
//! behind demand reads (they are not latency-critical) but ahead of
//! prefetches (the paper's rule is only that prefetching never delays
//! other operations).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coopcache::{
    CacheStats, CooperativeCache, Evicted, InsertOrigin, LocalOnlyCache, Lookup, PafsCache,
    XfsCache,
};
use devmodel::{DiskModel, FaultedModel};
use faultkit::{DiskFaultCtx, FaultState, NetClass};
use ioworkload::{BlockId, FileId, NodeId, Op, ProcId, Workload};
use lapobs::{Event, NoopRecorder, Obs, Recorder, StationId, NO_RID};
use prefetch::{FilePrefetcher, FxHashMap, PrefetchStats, Request};
use simkit::{
    DeviceOp, EventQueue, JobSpec, Priority, ServiceCost, ServiceModel, SimDuration, SimTime,
    StartedJob, Station,
};
use simprof::{PhaseWall, SimProfile};

use crate::config::{CacheSystem, MachineConfig, PrefetchGranularity, SimConfig};
use crate::metrics::{Metrics, ReadOutcome, SimReport, SpanBreakdown};

/// Run one oracle call and escalate a violation to a panic carrying
/// the simulator's state dump. Expands to nothing observable when the
/// oracle is disabled (`self.oracle` is `None`).
macro_rules! oracle_check {
    ($self:ident, $now:expr, |$o:ident| $call:expr) => {
        if let Some($o) = $self.oracle.as_mut() {
            let r = $call;
            if let Err(e) = r {
                $self.invariant_violation(e, $now);
            }
        }
    };
}

/// Disk-queue priorities: demand reads first, write-backs next,
/// prefetches last.
const PRIO_DEMAND: Priority = Priority(0);
const PRIO_WRITEBACK: Priority = Priority(1);
const PRIO_PREFETCH: Priority = Priority(2);

/// How far ahead one `resident_run` range query looks when the
/// aggressive prefetch walk checks residency. Matches the engine's
/// cached-run cutoff (64 consecutive resident blocks stop the walk),
/// so a full rescan costs one range probe instead of 64 point probes.
/// Any value ≥ 1 is behaviourally equivalent — this only sizes the
/// query, never changes its answer.
const WALK_RUN_PROBE: u32 = 64;

/// Identifier of one outstanding (multi-block) application request.
type ReqId = usize;

/// Coalescing scope of an in-flight fetch: global for PAFS (the file
/// server sees everything), per-node for xFS (nodes cannot see each
/// other's in-flight fetches — the source of duplicated prefetch
/// traffic on shared files).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct FetchKey {
    scope: Option<NodeId>,
    block: BlockId,
}

/// Identity of a prefetch engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PfKey {
    node: Option<NodeId>,
    file: FileId,
}

/// Position of a prefetch engine in [`Simulation::engines`].
type EngineId = u32;

/// One prefetch engine, created at the first access it serves.
struct Engine {
    key: PfKey,
    pf: FilePrefetcher,
    /// Disk serving the engine's latest demand block, tracked only
    /// under a fault plan: during that disk's error bursts the walk
    /// stands down (the paper's rule that prefetching never delays
    /// other operations).
    demand_disk: Option<usize>,
}

/// Dispatch record of an in-flight fetch's disk service, captured when
/// the job starts — the raw material for attributing a waiting read's
/// latency to queueing vs. mechanical time once the fetch lands.
#[derive(Clone, Copy)]
struct FetchSvc {
    /// When the disk began serving the fetch.
    begin: SimTime,
    /// The priced service, including any mechanical breakdown.
    cost: ServiceCost,
}

/// An in-flight disk fetch.
struct PendingFetch {
    /// Issued by the prefetcher (still counts as a prefetch unless a
    /// demand request absorbs it).
    prefetch: bool,
    /// A demand request joined while in flight.
    demanded: bool,
    /// Engine to notify on completion (prefetch fetches only).
    pf_owner: Option<EngineId>,
    /// Node whose buffer receives the block.
    node: NodeId,
    /// Requests waiting on this block.
    waiters: Vec<ReqId>,
    /// Service record, filled when the disk starts the job (`None`
    /// while the job still waits in queue).
    svc: Option<FetchSvc>,
    /// Time this fetch lost to disk outages (abort-and-requeue plus
    /// time spent queued behind a held disk) — attributed to the
    /// `failover` span component of the reads that waited on it.
    failover: SimDuration,
}

/// Work items on a disk queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DiskJob {
    Fetch(FetchKey),
    /// An extent-granular prefetch batch: `count` contiguous blocks of
    /// one file starting at `first`, served as a single multi-block job
    /// (one positioning cost, then a contiguous transfer). Each member
    /// block has its own [`PendingFetch`] entry so demand coalescing
    /// and absorption work per block; completion lands all members at
    /// once.
    FetchRun {
        first: FetchKey,
        count: u32,
    },
    Write(BlockId),
}

impl DiskJob {
    /// Does this job fetch `key`'s block (alone or inside a run)?
    fn fetches(&self, key: FetchKey) -> bool {
        match self {
            DiskJob::Fetch(k) => *k == key,
            DiskJob::FetchRun { first, count } => {
                first.scope == key.scope
                    && first.block.file == key.block.file
                    && key.block.index >= first.block.index
                    && key.block.index < first.block.index + u64::from(*count)
            }
            DiskJob::Write(_) => false,
        }
    }
}

/// The member fetch keys of an extent run, in block order.
fn run_keys(first: FetchKey, count: u32) -> impl Iterator<Item = FetchKey> {
    (0..u64::from(count)).map(move |i| FetchKey {
        scope: first.scope,
        block: BlockId::new(first.block.file, first.block.index + i),
    })
}

/// Simulation events. Kept to 16 bytes: a disk completion names its
/// disk and sequence number only, and the job itself waits in
/// [`Simulation::in_service`] (or, once aborted, in
/// [`Simulation::aborted`]).
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Continue replaying a process trace.
    Resume(ProcId),
    /// A disk finished its current job. `seq` is the disk's completion
    /// sequence number at scheduling time: an outage abort bumps the
    /// counter, so a completion whose `seq` no longer matches is stale
    /// — the job it announces was aborted and must be requeued instead.
    DiskDone {
        disk: u32,
        seq: u64,
    },
    /// A request's last transfer finished; deliver to the process.
    RequestDone(ReqId),
    /// Periodic write-back sweep.
    Sweep,
    /// A disk outage window starts / ends.
    DiskDown {
        disk: usize,
    },
    DiskUp {
        disk: usize,
    },
    /// A node outage window starts / ends (degraded-mode caching).
    NodeDown {
        node: u32,
    },
    NodeUp {
        node: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// A job an outage took off its disk, waiting for its stale completion
/// to requeue it.
struct AbortedJob {
    prio: Priority,
    rid: u32,
    at: SimTime,
    /// The job and the sequence number of the completion that will
    /// announce it.
    job: (u64, DiskJob),
}

/// Delivery costs priced once per request size: entry `n` is what
/// handing `n` blocks to the reader costs in memory (`local`) and
/// across the network (`remote`; `remote[0]` is the zero-byte
/// coordination hop). Larger requests are priced on the spot by the
/// same [`MachineConfig`] formulas.
struct DeliveryCosts {
    local: Vec<SimDuration>,
    remote: Vec<SimDuration>,
}

/// Request sizes, in blocks, that [`DeliveryCosts`] prices up front.
const PRICED_SIZES: u64 = 256;

impl DeliveryCosts {
    fn new(m: &MachineConfig) -> Self {
        DeliveryCosts {
            local: (0..=PRICED_SIZES)
                .map(|n| m.local_transfer(n * m.block_size))
                .collect(),
            remote: (0..=PRICED_SIZES)
                .map(|n| m.remote_transfer(n * m.block_size))
                .collect(),
        }
    }
}

struct ProcState {
    node: NodeId,
    next_op: usize,
    done: bool,
}

struct ReqState {
    proc: ProcId,
    started: SimTime,
    /// Request size in blocks.
    blocks: u64,
    remaining: usize,
    all_local: bool,
    /// Request id stamped on this read's trace events.
    rid: u32,
    /// At least one block needed a fresh demand fetch.
    fresh_miss: bool,
    /// At least one block joined an in-flight *prefetch* fetch — a
    /// correct-but-late prediction.
    joined_prefetch: bool,
}

/// The simulator. Build with [`Simulation::try_new`], run with
/// [`Simulation::run`] (or use [`crate::run_simulation`]).
///
/// The recorder type parameter selects the observability backend: the
/// default [`NoopRecorder`] compiles every emission site away (the
/// untraced simulation pays nothing), while a
/// [`lapobs::TraceRecorder`] captures the full event stream and comes
/// back in the [`Outcome`].
pub struct Simulation<R: Recorder = NoopRecorder> {
    config: SimConfig,
    workload: Arc<Workload>,
    queue: EventQueue<Ev>,
    cache: Box<dyn CooperativeCache>,
    disks: Vec<Station<DiskJob>>,
    /// One service model per disk, indexed like `disks`. Owns the arm
    /// position / platter state under the geometry model; prices the
    /// fixed constants otherwise.
    disk_models: Vec<DiskModel>,
    pending: FxHashMap<FetchKey, PendingFetch>,
    /// Prefetch engines in creation order. Fetches and completions
    /// name their engine by position; only a demand looks its engine
    /// up by key, in `engine_ids`.
    engines: Vec<Engine>,
    engine_ids: FxHashMap<PfKey, EngineId>,
    procs: Vec<ProcState>,
    reqs: Vec<ReqState>,
    metrics: Metrics,
    file_blocks: Vec<u64>,
    /// Layout extent of the disk model in blocks (1 under the fixed
    /// model). Drives both the extent-aware striping in
    /// [`disk_of`](Self::disk_of) and the batch size of extent-granular
    /// prefetching.
    extent_blocks: u64,
    active_procs: usize,
    /// Next request id: allocated densely, one per demand read
    /// (including pure cache hits), so every trace event of one read
    /// shares an id.
    next_rid: u32,
    /// Fault-injection state. `None` when the config carries no plan
    /// (or an empty one): every fault code path below is then skipped
    /// and the simulation is the exact pre-fault one, bit for bit.
    faults: Option<FaultState>,
    /// Per-disk completion sequence numbers for stale-[`Ev::DiskDone`]
    /// detection: bumped when a completion is scheduled and when a job
    /// is aborted, so at most one scheduled completion per disk is
    /// genuine (the one whose `seq` matches).
    done_seq: Vec<u64>,
    /// Per-disk job in service: what the disk's genuine
    /// [`Ev::DiskDone`] announces.
    in_service: Vec<Option<DiskJob>>,
    /// Per-disk FIFO of outage-aborted jobs (the station does not keep
    /// an aborted job), requeued by their stale completions.
    aborted: Vec<VecDeque<AbortedJob>>,
    /// When each disk last went down (start of the current/last outage
    /// window) — bounds the held-queue failover attribution.
    last_down: Vec<SimTime>,
    /// Reusable scratch for [`handle_read`](Self::handle_read)'s
    /// missing-block list: taken at entry, drained, returned empty —
    /// steady-state reads allocate nothing here.
    scratch_missing: Vec<BlockId>,
    /// Reusable scratch for [`pump_prefetcher`](Self::pump_prefetcher):
    /// the issue batch.
    scratch_issue: Vec<(u64, u32)>,
    /// Recycled `waiters` vectors from completed fetches, so demand
    /// misses stop paying one allocation each.
    waiters_pool: Vec<Vec<ReqId>>,
    /// Delivery costs by request size, priced at construction.
    delivery: DeliveryCosts,
    /// Runtime invariant oracle (DESIGN.md §15). `None` when
    /// [`SimConfig::check`] resolves to disabled: every check site
    /// below then costs one branch on an always-false `Option`.
    oracle: Option<simcheck::Oracle>,
    rec: R,
    /// Host time [`try_new`](Self::try_new) took: the profile's
    /// `setup` phase.
    setup: Duration,
}

/// What [`Simulation::run`] returns.
pub struct Outcome<R> {
    /// The report every figure and table reads.
    pub report: SimReport,
    /// The recorder, holding whatever it captured.
    pub rec: R,
    /// The run's self-profile. Its counters are deterministic and
    /// its phase timers cover construction, the event loop and the
    /// report; profiling only reads what the run keeps anyway, so
    /// `report` is the same with or without anyone looking at it.
    pub profile: SimProfile,
}

impl Simulation {
    /// [`try_new`](Self::try_new) with no recorder, panicking on its
    /// error. Kept only so `perfbench` builds unchanged.
    #[doc(hidden)]
    pub fn new_shared(config: SimConfig, workload: Arc<Workload>) -> Self {
        Self::with_recorder(config, workload, NoopRecorder)
    }
}

impl<R: Recorder> Simulation<R> {
    /// [`try_new`](Self::try_new), panicking on its error. Kept only
    /// so `perfbench` builds unchanged.
    #[doc(hidden)]
    pub fn with_recorder(config: SimConfig, workload: Arc<Workload>, rec: R) -> Self {
        Self::try_new(config, workload, rec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a simulation of `workload` under `config` that records
    /// events into `rec`, or say why `config` cannot run `workload`.
    /// Pass the workload in an [`Arc`] to share one across the cells
    /// of a sweep without a deep clone per cell. The construction time
    /// becomes the profile's `setup` phase.
    ///
    /// # Errors
    /// The first reason the pair cannot run: an inconsistent trace,
    /// more nodes than the machine has, a different block size, or a
    /// machine the cache models do not support.
    pub fn try_new(
        config: SimConfig,
        workload: impl Into<Arc<Workload>>,
        rec: R,
    ) -> Result<Self, String> {
        let t0 = Instant::now();
        let workload = workload.into();
        config.check_workload(&workload)?;
        let cache: Box<dyn CooperativeCache> = match config.system {
            CacheSystem::Pafs => Box::new(PafsCache::with_policy(
                config.machine.nodes,
                config.blocks_per_node(),
                config.replacement,
            )),
            CacheSystem::Xfs => Box::new(XfsCache::with_options(
                config.machine.nodes,
                config.blocks_per_node(),
                XfsCache::DEFAULT_N_CHANCE,
                0x9E3779B9,
            )),
            CacheSystem::LocalOnly => Box::new(LocalOnlyCache::with_policy(
                config.machine.nodes,
                config.blocks_per_node(),
                config.replacement,
            )),
        };
        let disks = (0..config.machine.disks)
            .map(|i| Station::with_scheduler(StationId::disk(i), config.machine.disk_sched.build()))
            .collect();
        let disk_models = (0..config.machine.disks)
            .map(|_| config.machine.build_disk_model())
            .collect();
        let procs = workload
            .processes
            .iter()
            .map(|p| ProcState {
                node: p.node,
                next_op: 0,
                done: false,
            })
            .collect::<Vec<_>>();
        let file_blocks = (0..workload.files.len())
            .map(|f| workload.file_blocks(FileId(f as u32)))
            .collect();
        let metrics = Metrics::new(SimTime::ZERO + config.warmup, config.metrics_interval);
        let extent_blocks = config.machine.disk_model.extent_blocks();
        let active_procs = procs.len();
        let ndisks = config.machine.disks as usize;
        let faults = config
            .fault_plan
            .filter(|p| !p.is_empty())
            .map(|p| FaultState::new(p, config.machine.nodes as usize));
        let queue = EventQueue::new();
        let delivery = DeliveryCosts::new(&config.machine);
        let oracle = config
            .check
            .enabled()
            .then(|| simcheck::Oracle::new(config.machine.nodes as usize));
        let mut sim = Simulation {
            config,
            workload,
            queue,
            cache,
            disks,
            disk_models,
            pending: FxHashMap::default(),
            engines: Vec::new(),
            engine_ids: FxHashMap::default(),
            procs,
            reqs: Vec::new(),
            metrics,
            file_blocks,
            extent_blocks,
            active_procs,
            next_rid: 0,
            faults,
            done_seq: vec![0; ndisks],
            in_service: vec![None; ndisks],
            aborted: (0..ndisks).map(|_| VecDeque::new()).collect(),
            last_down: vec![SimTime::ZERO; ndisks],
            scratch_missing: Vec::new(),
            scratch_issue: Vec::new(),
            waiters_pool: Vec::new(),
            delivery,
            oracle,
            rec,
            setup: Duration::ZERO,
        };
        sim.setup = t0.elapsed();
        Ok(sim)
    }

    /// Run to completion: the report, the recorder and the profile.
    pub fn run(mut self) -> Outcome<R> {
        let allocs_before = simprof::alloc_count();
        let t_loop = Instant::now();
        self.drive();
        let event_loop = t_loop.elapsed();
        let allocs = match (allocs_before, simprof::alloc_count()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        let counters = self.profile_counters();
        let setup = self.setup;
        let t_report = Instant::now();
        let (report, rec) = self.finish();
        let profile = SimProfile {
            counters,
            reads: report.reads,
            wall: PhaseWall {
                setup,
                event_loop,
                report: t_report.elapsed(),
            },
            allocs,
        };
        Outcome {
            report,
            rec,
            profile,
        }
    }

    /// [`run`](Self::run) as a tuple. Kept only so `perfbench` builds
    /// unchanged.
    #[doc(hidden)]
    pub fn run_profiled(self) -> (SimReport, R, SimProfile) {
        let o = self.run();
        (o.report, o.rec, o.profile)
    }

    /// Assemble the deterministic cost counters from the subsystems,
    /// visiting the engines in creation order.
    fn profile_counters(&self) -> simprof::Counters {
        let q = self.queue.depth_stats();
        let mut c = simprof::Counters {
            events: q.pops,
            queue_pushes: q.pushes,
            peak_queue_depth: q.peak_depth,
            queue_depth_ticks: q.depth_ticks,
            ..simprof::Counters::default()
        };
        for disk in &self.disks {
            c.station_dispatches += disk.stats().dispatched;
        }
        for engine in &self.engines {
            let p = engine.pf.predictor();
            c.pred_lookups += p.table_lookups();
            c.pred_updates += p.table_updates();
        }
        c.cache_probes = self.cache.meta_probes();
        c
    }

    /// Schedule the initial events, then drain the queue.
    fn drive(&mut self) {
        for p in 0..self.procs.len() {
            self.queue
                .schedule(SimTime::ZERO, Ev::Resume(ProcId(p as u32)));
        }
        if self.active_procs > 0 {
            let t = SimTime::ZERO + self.config.writeback_period;
            self.queue.schedule(t, Ev::Sweep);
        }
        if let Some(fs) = &self.faults {
            for disk in 0..self.disks.len() {
                if let Some(t) = fs.plan.first_disk_down(disk) {
                    self.queue.schedule(t, Ev::DiskDown { disk });
                }
            }
            for node in 0..self.config.machine.nodes as usize {
                if let Some(t) = fs.plan.first_node_down(node) {
                    self.queue.schedule(t, Ev::NodeDown { node: node as u32 });
                }
            }
        }
        while let Some((now, ev)) = self.queue.pop() {
            // Monotonicity + liveness watchdog: one branch when the
            // oracle is off, a few loads when it is on.
            oracle_check!(self, now, |o| o.on_event(now));
            if self.rec.enabled() {
                self.rec.record(
                    now.as_nanos(),
                    Event::SimQueueDepth {
                        depth: self.queue.len() as u32,
                    },
                );
            }
            match ev {
                Ev::Resume(p) => self.step_proc(p, now),
                Ev::DiskDone { disk, seq } => self.disk_done(disk as usize, seq, now),
                Ev::RequestDone(r) => self.request_done(r, now),
                Ev::Sweep => self.sweep(now, true),
                Ev::DiskDown { disk } => self.disk_down(disk, now),
                Ev::DiskUp { disk } => self.disk_up(disk, now),
                Ev::NodeDown { node } => self.node_down(node, now),
                Ev::NodeUp { node } => self.node_up(node, now),
            }
        }
    }

    /// Escalate an invariant violation: panic with the oracle's
    /// message plus a diagnostic dump of the loop's state, so a
    /// conservation bug surfaces as a one-line diagnosis instead of a
    /// silently wrong report.
    #[cold]
    fn invariant_violation(&self, msg: String, now: SimTime) -> ! {
        panic!("simcheck violation: {msg}\n{}", self.dump_state(now));
    }

    /// The diagnostic state dump attached to every violation (and to a
    /// watchdog abort): enough to see *where* the loop was stuck.
    fn dump_state(&self, now: SimTime) -> String {
        format!(
            "  now={:.6}s queue_len={} active_procs={} pending_fetches={} open_reqs={} \
             reads_issued={} resident_blocks={}\n  done_seq={:?} aborted={:?}\n  config={}",
            now.as_secs_f64(),
            self.queue.len(),
            self.active_procs,
            self.pending.len(),
            self.reqs.iter().filter(|r| r.remaining > 0).count(),
            self.next_rid,
            self.cache.resident_blocks(),
            self.done_seq,
            self.aborted.iter().map(|a| a.len()).collect::<Vec<_>>(),
            self.config.label(),
        )
    }

    /// Structural cache checks run at fault-transition edges and at
    /// end of run: metadata-layout integrity plus the copy-accounting
    /// balance (inserts − evictions == resident). Uses the uncounted
    /// [`CooperativeCache::check_integrity`], so the deterministic
    /// probe counters (BENCH.json identity) are unaffected.
    fn edge_checks(&mut self, now: SimTime) {
        if self.oracle.is_none() {
            return;
        }
        if let Err(e) = self.cache.check_integrity() {
            self.invariant_violation(e, now);
        }
    }

    /// Snapshot the cache counters when tracing — paired with
    /// [`emit_cache_delta`](Self::emit_cache_delta) around cache
    /// operations to surface coordination traffic (forwards,
    /// invalidations) that is only visible through the stats.
    fn snap_stats(&self) -> Option<CacheStats> {
        if self.rec.enabled() {
            Some(*self.cache.stats())
        } else {
            None
        }
    }

    fn emit_cache_delta(&mut self, before: Option<CacheStats>, now: SimTime) {
        if let Some(before) = before {
            let after = *self.cache.stats();
            after.emit_delta(&before, now.as_nanos(), &mut self.rec);
        }
    }

    // ----- process replay ------------------------------------------------

    fn step_proc(&mut self, p: ProcId, now: SimTime) {
        let idx = p.0 as usize;
        debug_assert!(!self.procs[idx].done);
        let op = {
            let st = &mut self.procs[idx];
            let ops = &self.workload.processes[idx].ops;
            if st.next_op >= ops.len() {
                st.done = true;
                self.active_procs -= 1;
                if self.active_procs == 0 {
                    // Final flush so every surviving dirty block is
                    // written once more, as a real shutdown sync would.
                    self.sweep(now, false);
                }
                return;
            }
            let op = ops[st.next_op];
            st.next_op += 1;
            op
        };
        match op {
            Op::Compute(d) => {
                self.queue.schedule(now + d, Ev::Resume(p));
            }
            Op::Read { file, offset, len } => {
                self.handle_read(p, file, offset, len, now);
            }
            Op::Write { file, offset, len } => {
                self.handle_write(p, file, offset, len, now);
            }
        }
    }

    fn handle_read(&mut self, p: ProcId, file: FileId, offset: u64, len: u64, now: SimTime) {
        let bs = self.workload.block_size;
        let req = Request::from_bytes(offset, len, bs).expect("validated non-empty");
        let node = self.procs[p.0 as usize].node;
        let rid = self.next_rid;
        self.next_rid += 1;
        oracle_check!(self, now, |o| o.read_issued(rid));

        let snap = self.snap_stats();
        let prefetch_used_before = self.cache.stats().prefetch_used;
        let mut all_local = true;
        let mut missing = std::mem::take(&mut self.scratch_missing);
        for b in req.blocks() {
            let block = BlockId::new(file, b);
            let outcome = self.cache.access(node, block, false);
            if self.rec.enabled() {
                let ev = match outcome.lookup {
                    Lookup::LocalHit => Event::CacheHitLocal { node: node.0, rid },
                    Lookup::RemoteHit { holder } => Event::CacheHitRemote {
                        node: node.0,
                        holder: holder.0,
                        rid,
                    },
                    Lookup::Miss => Event::CacheMiss { node: node.0, rid },
                };
                self.rec.record(now.as_nanos(), ev);
            }
            self.handle_evictions(node, &outcome.evicted, now);
            match outcome.lookup {
                Lookup::LocalHit => {}
                Lookup::RemoteHit { holder } => {
                    all_local = false;
                    oracle_check!(self, now, |o| o.check_remote_hit(holder.0));
                }
                Lookup::Miss => {
                    all_local = false;
                    missing.push(block);
                }
            }
        }
        self.emit_cache_delta(snap, now);
        let used_prefetch = self.cache.stats().prefetch_used > prefetch_used_before;

        let req_idx = self.reqs.len();
        let mut remaining = 0;
        let mut fresh_misses = 0u32;
        let mut joined_prefetch = false;
        for block in missing.drain(..) {
            let key = self.fetch_key(node, block);
            remaining += 1;
            if let Some(pf) = self.pending.get_mut(&key) {
                pf.waiters.push(req_idx);
                joined_prefetch |= pf.prefetch;
                if pf.prefetch && !pf.demanded {
                    pf.demanded = true;
                    self.metrics.prefetch_absorbed += 1;
                    if self.rec.enabled() {
                        self.rec.record(
                            now.as_nanos(),
                            Event::PrefetchAbsorbed {
                                file: block.file.0,
                                block: block.index,
                                rid,
                            },
                        );
                    }
                    // The block is now demand-critical: jump the queue
                    // (a whole extent run is promoted if the block
                    // travels inside one).
                    let disk = self.disk_of(block);
                    self.disks[disk].promote_where(PRIO_DEMAND, |j| j.fetches(key));
                } else {
                    // Joined an already-demanded fetch (plain demand
                    // fetch, or a prefetch an earlier demand absorbed).
                    self.metrics.demand_coalesced += 1;
                }
            } else {
                fresh_misses += 1;
                let mut waiters = self.waiters_pool.pop().unwrap_or_default();
                waiters.push(req_idx);
                self.pending.insert(
                    key,
                    PendingFetch {
                        prefetch: false,
                        demanded: true,
                        pf_owner: None,
                        node,
                        waiters,
                        svc: None,
                        failover: SimDuration::ZERO,
                    },
                );
                self.issue_fetch(key, false, rid, now);
            }
        }
        self.scratch_missing = missing;

        // Let the prefetcher see the request *after* demand fetches are
        // pending, so it skips blocks already on their way. A request
        // fully covered by residency or in-flight fetches confirms the
        // walk; a fresh miss tells it its prefetched blocks were
        // evicted.
        self.notify_prefetcher(node, file, req, fresh_misses == 0, rid, now);

        let blocks = req.size;
        if remaining == 0 {
            let (nretry, ndelay) = if all_local {
                (SimDuration::ZERO, SimDuration::ZERO)
            } else {
                self.net_fault_extra(blocks, rid, now)
            };
            let cost = self.transfer_cost(blocks, all_local) + nretry + ndelay;
            self.metrics.record_read(now, cost);
            let mut breakdown = self.delivery_breakdown(blocks, all_local);
            breakdown.retry += nretry;
            breakdown.network += ndelay;
            oracle_check!(self, now, |o| o.read_completed(rid));
            oracle_check!(self, now, |o| o.check_span(rid, breakdown.total(), cost));
            let outcome = if used_prefetch {
                ReadOutcome::CoveredByPrefetch
            } else {
                ReadOutcome::DemandHit
            };
            self.metrics
                .record_span(now, &breakdown, outcome, SimDuration::ZERO);
            if self.rec.enabled() {
                self.rec.record(
                    now.as_nanos(),
                    Event::ReadDone {
                        proc: p.0,
                        node: node.0,
                        latency: cost.as_nanos(),
                        rid,
                    },
                );
            }
            self.queue.schedule(now + cost, Ev::Resume(p));
        } else {
            self.reqs.push(ReqState {
                proc: p,
                started: now,
                blocks,
                remaining,
                all_local,
                rid,
                fresh_miss: fresh_misses > 0,
                joined_prefetch,
            });
        }
    }

    fn handle_write(&mut self, p: ProcId, file: FileId, offset: u64, len: u64, now: SimTime) {
        let bs = self.workload.block_size;
        let req = Request::from_bytes(offset, len, bs).expect("validated non-empty");
        let node = self.procs[p.0 as usize].node;

        let snap = self.snap_stats();
        let mut all_local = true;
        for b in req.blocks() {
            let block = BlockId::new(file, b);
            let outcome = self.cache.access(node, block, true);
            self.handle_evictions(node, &outcome.evicted, now);
            match outcome.lookup {
                Lookup::LocalHit => {}
                Lookup::RemoteHit { holder } => {
                    all_local = false;
                    oracle_check!(self, now, |o| o.check_remote_hit(holder.0));
                }
                Lookup::Miss => {
                    all_local = false;
                    // Write-allocate: the block materialises dirty.
                    let ev = self.cache.insert(node, block, InsertOrigin::Demand, true);
                    if self.rec.enabled() {
                        self.rec.record(
                            now.as_nanos(),
                            Event::CacheInsert {
                                node: node.0,
                                prefetch: false,
                            },
                        );
                    }
                    self.handle_evictions(node, &ev, now);
                }
            }
        }
        self.emit_cache_delta(snap, now);

        // Writes allocate in place and never need the data fetched, so
        // they carry no residency signal for the walk (and no demand
        // read id to attribute prefetches to).
        self.notify_prefetcher(node, file, req, true, NO_RID, now);

        let cost = self.transfer_cost(req.size, all_local);
        self.metrics.record_write(now, cost);
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::WriteDone {
                    proc: p.0,
                    node: node.0,
                    latency: cost.as_nanos(),
                },
            );
        }
        self.queue.schedule(now + cost, Ev::Resume(p));
    }

    fn request_done(&mut self, req_idx: ReqId, now: SimTime) {
        let req = &self.reqs[req_idx];
        debug_assert_eq!(req.remaining, 0);
        // Classify by request *start* time so hit and miss reads use
        // the same clock for the warm-up boundary and the time series.
        let latency = now - req.started;
        let rid = req.rid;
        self.metrics.record_read(req.started, latency);
        oracle_check!(self, now, |o| o.read_completed(rid));
        if self.rec.enabled() {
            let proc = req.proc;
            let node = self.procs[proc.0 as usize].node;
            self.rec.record(
                now.as_nanos(),
                Event::ReadDone {
                    proc: proc.0,
                    node: node.0,
                    latency: latency.as_nanos(),
                    rid: req.rid,
                },
            );
        }
        self.queue
            .schedule(now, Ev::Resume(self.reqs[req_idx].proc));
    }

    // ----- disks ---------------------------------------------------------

    fn disk_of(&self, block: BlockId) -> usize {
        // Stripe each file's blocks across all disks, with a per-file
        // rotation so files don't all start on disk 0. The striping
        // unit is the layout extent: with one-block extents (the fixed
        // model and the calibrated pm geometry) this is per-block
        // striping, bit-identical to the pre-extent simulator; with
        // larger extents a whole extent lives on one disk, which is
        // what lets a multi-block run be a single contiguous job.
        let unit = block.index / self.extent_blocks;
        ((block.file.0 as u64).wrapping_mul(7919) + unit) as usize % self.disks.len()
    }

    fn issue_fetch(&mut self, key: FetchKey, prefetch: bool, rid: u32, now: SimTime) {
        self.metrics.record_disk_read(now, prefetch);
        let disk = self.disk_of(key.block);
        let prio = if prefetch && self.config.prefetch_priority {
            PRIO_PREFETCH
        } else {
            PRIO_DEMAND
        };
        self.submit_disk_job(
            disk,
            prio,
            DeviceOp::Read,
            key.block,
            1,
            DiskJob::Fetch(key),
            rid,
            now,
        );
    }

    /// Issue one extent-granular prefetch batch: `count` contiguous
    /// blocks starting at `first`, as a single multi-block disk job.
    /// Every member block still counts as one prefetch disk read (the
    /// paper's traffic metric is per block); the *service* is what the
    /// batch saves — one positioning cost instead of `count`.
    fn issue_fetch_run(&mut self, first: FetchKey, count: u32, now: SimTime) {
        for _ in 0..count {
            self.metrics.record_disk_read(now, true);
        }
        let disk = self.disk_of(first.block);
        debug_assert_eq!(
            disk,
            self.disk_of(BlockId::new(
                first.block.file,
                first.block.index + u64::from(count) - 1
            )),
            "an extent run must not cross a striping boundary"
        );
        let prio = if self.config.prefetch_priority {
            PRIO_PREFETCH
        } else {
            PRIO_DEMAND
        };
        self.submit_disk_job(
            disk,
            prio,
            DeviceOp::Read,
            first.block,
            count,
            DiskJob::FetchRun { first, count },
            NO_RID,
            now,
        );
    }

    fn issue_disk_write(&mut self, block: BlockId, now: SimTime) {
        self.metrics.record_disk_write(now, block);
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::WriteBack {
                    file: block.file.0,
                    block: block.index,
                },
            );
        }
        let disk = self.disk_of(block);
        self.submit_disk_job(
            disk,
            PRIO_WRITEBACK,
            DeviceOp::Write,
            block,
            1,
            DiskJob::Write(block),
            NO_RID,
            now,
        );
    }

    /// Hand one operation to disk `disk`, covering `blocks` contiguous
    /// device blocks from `block` on: the disk's service model supplies
    /// the position (geometry) and later the price.
    #[allow(clippy::too_many_arguments)]
    fn submit_disk_job(
        &mut self,
        disk: usize,
        prio: Priority,
        op: DeviceOp,
        block: BlockId,
        blocks: u32,
        tag: DiskJob,
        rid: u32,
        now: SimTime,
    ) {
        let spec = JobSpec {
            op,
            pos: self.disk_models[disk].lba_of(block.file.0, block.index),
            bytes: self.config.machine.block_size * u64::from(blocks),
            blocks,
            rid,
        };
        let started = self.with_disk_model(disk, |st, model, rec| {
            st.arrive_job(now, prio, spec, tag, model, rec)
        });
        if let Some(started) = started {
            self.after_start(disk, now, started);
        }
    }

    /// Run `f` against disk `disk`'s station and service model, routing
    /// the model through the fault layer when transient disk errors are
    /// active — any job priced inside `f` then carries its retry
    /// surcharge (and the per-disk fault counters advance).
    fn with_disk_model<T>(
        &mut self,
        disk: usize,
        f: impl FnOnce(&mut Station<DiskJob>, &mut dyn ServiceModel, &mut R) -> T,
    ) -> T {
        let Simulation {
            disks,
            disk_models,
            faults,
            rec,
            ..
        } = self;
        match faults {
            Some(fs) if fs.plan.disk_errors_active() => {
                let mut ctx = DiskFaultCtx { state: fs, disk };
                let mut model = FaultedModel {
                    inner: &mut disk_models[disk],
                    faults: &mut ctx,
                };
                f(&mut disks[disk], &mut model, rec)
            }
            _ => f(&mut disks[disk], &mut disk_models[disk], rec),
        }
    }

    /// Bookkeeping common to every disk-job dispatch: surface the retry
    /// surcharge (if the dispatch drew transient errors), record the
    /// fetch service for span attribution, and schedule the completion
    /// under a fresh sequence number.
    fn after_start(&mut self, disk: usize, now: SimTime, started: StartedJob<DiskJob>) {
        if started.cost.retry > SimDuration::ZERO && self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::FaultInjected {
                    disk: disk as u32,
                    retry_us: (started.cost.retry.as_nanos() / 1_000).min(u64::from(u32::MAX))
                        as u32,
                    rid: started.rid,
                },
            );
        }
        self.note_fetch_started(now, &started);
        self.done_seq[disk] += 1;
        self.in_service[disk] = Some(started.tag);
        self.queue.schedule(
            started.completes_at,
            Ev::DiskDone {
                disk: disk as u32,
                seq: self.done_seq[disk],
            },
        );
    }

    /// Record when a fetch's disk service began (and what it cost), so
    /// the waiting reads can split their latency into queueing and
    /// mechanical time when the fetch lands. Write jobs need no record:
    /// nothing waits on them.
    fn note_fetch_started(&mut self, now: SimTime, started: &StartedJob<DiskJob>) {
        let svc = FetchSvc {
            begin: now,
            cost: started.cost,
        };
        match started.tag {
            DiskJob::Fetch(key) => {
                if let Some(pf) = self.pending.get_mut(&key) {
                    pf.svc = Some(svc);
                }
            }
            DiskJob::FetchRun { first, count } => {
                // Every member shares the run's service record: a read
                // waiting on any of them waited for this one dispatch.
                for key in run_keys(first, count) {
                    if let Some(pf) = self.pending.get_mut(&key) {
                        pf.svc = Some(svc);
                    }
                }
            }
            DiskJob::Write(_) => {}
        }
    }

    fn disk_done(&mut self, disk: usize, seq: u64, now: SimTime) {
        if seq != self.done_seq[disk] {
            // Stale completion: the job this event announces was
            // aborted by an outage after the event was scheduled. Its
            // arrival is exactly when the issuer would have noticed the
            // job never finished — the failover timeout — so the job
            // goes back to the front of its queue now.
            self.requeue_aborted(disk, seq, now);
            return;
        }
        let job = self.in_service[disk]
            .take()
            .expect("completion for an idle disk");
        let started = self.with_disk_model(disk, |st, model, rec| st.complete_job(now, model, rec));
        if let Some(started) = started {
            self.after_start(disk, now, started);
        }
        match job {
            DiskJob::Write(_) => {}
            DiskJob::Fetch(key) => self.fetch_done(key, now),
            DiskJob::FetchRun { first, count } => self.run_done(first, count, now),
        }
    }

    fn fetch_done(&mut self, key: FetchKey, now: SimTime) {
        if let Some(owner) = self.complete_fetch_block(key, now) {
            self.engines[owner as usize].pf.on_prefetch_complete();
            self.pump_prefetcher(owner, now);
        }
    }

    /// An extent-granular batch landed: every member block materialises
    /// in the cache at the same instant (the batch was one disk job),
    /// then the owning engine is credited with **one** completed
    /// in-flight unit — the linear limit was charged per batch, not per
    /// block.
    fn run_done(&mut self, first: FetchKey, count: u32, now: SimTime) {
        let mut owner = None;
        for key in run_keys(first, count) {
            owner = self.complete_fetch_block(key, now).or(owner);
        }
        if let Some(owner) = owner {
            self.engines[owner as usize].pf.on_prefetch_complete();
            self.pump_prefetcher(owner, now);
        }
    }

    /// Land one fetched block: insert into the cache, wake the waiting
    /// reads, and return the prefetch engine to credit (if any) —
    /// crediting is the caller's job because a multi-block run charges
    /// a single in-flight unit.
    fn complete_fetch_block(&mut self, key: FetchKey, now: SimTime) -> Option<EngineId> {
        let pf = self
            .pending
            .remove(&key)
            .expect("completion for unknown fetch");
        // A prefetch absorbed by demand counts as demand-fetched for
        // the cache's usage accounting (it was used the moment it
        // landed); the absorption itself is tracked in the metrics.
        let origin = if pf.prefetch && !pf.demanded {
            InsertOrigin::Prefetch
        } else {
            InsertOrigin::Demand
        };
        let snap = self.snap_stats();
        let ev = self.cache.insert(pf.node, key.block, origin, false);
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::CacheInsert {
                    node: pf.node.0,
                    prefetch: origin == InsertOrigin::Prefetch,
                },
            );
        }
        self.handle_evictions(pf.node, &ev, now);
        self.emit_cache_delta(snap, now);

        let failover = pf.failover;
        let mut waiters = pf.waiters;
        for req_idx in waiters.drain(..) {
            self.reqs[req_idx].remaining -= 1;
            if self.reqs[req_idx].remaining == 0 {
                let (blocks, all_local) = (self.reqs[req_idx].blocks, self.reqs[req_idx].all_local);
                let rid = self.reqs[req_idx].rid;
                let (nretry, ndelay) = if all_local {
                    (SimDuration::ZERO, SimDuration::ZERO)
                } else {
                    self.net_fault_extra(blocks, rid, now)
                };
                let cost = self.transfer_cost(blocks, all_local) + nretry + ndelay;
                self.record_read_span(
                    req_idx, pf.svc, failover, now, blocks, all_local, nretry, ndelay,
                );
                self.queue.schedule(now + cost, Ev::RequestDone(req_idx));
            }
        }
        self.waiters_pool.push(waiters);

        pf.pf_owner
    }

    /// Process the fallout of a cache operation performed on behalf of
    /// `node` (the cache does not report which node's buffer each
    /// victim left, so the events are attributed to the acting node).
    fn handle_evictions(&mut self, node: NodeId, evicted: &[Evicted], now: SimTime) {
        for e in evicted {
            if self.rec.enabled() {
                self.rec.record(
                    now.as_nanos(),
                    Event::CacheEvict {
                        node: node.0,
                        dirty: e.dirty,
                        wasted_prefetch: e.wasted_prefetch,
                    },
                );
            }
            if e.dirty {
                self.issue_disk_write(e.block, now);
            }
        }
    }

    // ----- prefetching ---------------------------------------------------

    fn pf_key(&self, node: NodeId, file: FileId) -> PfKey {
        match self.config.system {
            CacheSystem::Pafs => PfKey { node: None, file },
            CacheSystem::Xfs | CacheSystem::LocalOnly => PfKey {
                node: Some(node),
                file,
            },
        }
    }

    /// The engine for `node`'s accesses to `file`, created on first use.
    fn engine_for(&mut self, node: NodeId, file: FileId) -> EngineId {
        let key = self.pf_key(node, file);
        let next = self.engines.len() as EngineId;
        let id = *self.engine_ids.entry(key).or_insert(next);
        if id == next {
            let pf = FilePrefetcher::new(self.config.prefetch, self.file_blocks[file.0 as usize]);
            self.engines.push(Engine {
                key,
                pf,
                demand_disk: None,
            });
        }
        id
    }

    fn fetch_key(&self, node: NodeId, block: BlockId) -> FetchKey {
        match self.config.system {
            CacheSystem::Pafs => FetchKey { scope: None, block },
            CacheSystem::Xfs | CacheSystem::LocalOnly => FetchKey {
                scope: Some(node),
                block,
            },
        }
    }

    /// The node whose buffers receive prefetched blocks: the file's
    /// server for PAFS (centralized prefetching), the engine's own node
    /// for xFS (local prefetching).
    fn prefetch_home(&self, key: PfKey) -> NodeId {
        match key.node {
            Some(n) => n,
            None => coopcache::server_node(key.file, self.config.machine.nodes),
        }
    }

    fn notify_prefetcher(
        &mut self,
        node: NodeId,
        file: FileId,
        req: Request,
        fully_cached: bool,
        rid: u32,
        now: SimTime,
    ) {
        if !self.config.prefetch.prefetches() {
            return;
        }
        let id = self.engine_for(node, file);
        if self.faults.is_some() {
            self.engines[id as usize].demand_disk =
                Some(self.disk_of(BlockId::new(file, req.offset)));
        }
        {
            let Simulation { engines, rec, .. } = self;
            let mut obs = Obs::new(now.as_nanos(), file.0, rec);
            engines[id as usize]
                .pf
                .on_demand_with_residency_obs(req, fully_cached, rid, &mut obs);
        }
        self.pump_prefetcher(id, now);
    }

    /// Pull every block the engine wants to prefetch right now and put
    /// it on the disks.
    fn pump_prefetcher(&mut self, id: EngineId, now: SimTime) {
        if let Some(fs) = &mut self.faults {
            if let Some(disk) = self.engines[id as usize].demand_disk {
                if fs.plan.in_burst(disk, now) {
                    // The paper's rule is that prefetching never delays
                    // other operations: during an error burst the disk
                    // is struggling, so the walk stands down and demand
                    // reads keep the queue to themselves.
                    fs.stats.prefetch_suppressed += 1;
                    return;
                }
            }
        }
        let key = self.engines[id as usize].key;
        let home = self.prefetch_home(key);
        // Issue units: `(first, count)` runs. Per-block mode always
        // produces `count == 1`; extent mode batches up to one extent.
        // The buffer is recycled scratch — drained and put back below,
        // so steady-state pumps allocate nothing. The engine never hands
        // out a block twice between two demands (its path set dedups
        // every walk), so the batch needs no membership check of its own.
        let mut to_issue = std::mem::take(&mut self.scratch_issue);
        // Extent-granular batching applies to the aggressive walkers
        // only: a one-block-ahead engine has nothing to batch, and the
        // paper's non-aggressive modes must stay untouched. With
        // one-block extents the batcher degenerates to per-block issue,
        // so the extra gate is the granularity switch itself.
        let extent_mode = self.config.machine.prefetch_granularity == PrefetchGranularity::Extent
            && self.config.prefetch.is_aggressive();
        let extent_blocks = self.extent_blocks;
        let aggressive_walk = self.config.prefetch.is_aggressive();
        // Block range verified resident by a `resident_run` query this
        // pump. Sound as a memo because a pump never mutates the cache:
        // the walk loop below only issues pure `contains`-family
        // queries, and the fetches batched in `to_issue` are inserted
        // into `pending` only after the loop ends — so residency is
        // frozen for the duration of the pump.
        let mut run_resident: Option<(u64, u64)> = None;
        {
            let Simulation {
                engines,
                cache,
                pending,
                config,
                rec,
                ..
            } = self;
            let engine = &mut engines[id as usize].pf;
            let mut obs = Obs::new(now.as_nanos(), key.file.0, rec);
            let scope = key.node;
            // Without cooperation a node knows only its own cache; the
            // cooperative systems consult the global state (PAFS's
            // server sees everything; xFS's manager answers residency).
            let local_only = match config.system {
                CacheSystem::LocalOnly => true,
                CacheSystem::Pafs | CacheSystem::Xfs => false,
            };
            loop {
                // A block is skipped if it is cached *anywhere* (on xFS
                // the manager answers this; prefetching a block that a
                // peer caches would be pointless — a demand read gets
                // it as a cheap remote hit) or if this prefetcher's own
                // scope already has a fetch in flight. Other nodes'
                // in-flight fetches are invisible on xFS, which is what
                // duplicates prefetch work on shared files (§4).
                let is_cached = |idx: u64| {
                    // Cheap, uncounted membership checks answer first:
                    // ranges a `resident_run` query already verified
                    // (two compares, no hashing — the common case while
                    // rescanning resident data), then fetches already in
                    // flight (one Fx hash). Every check here is
                    // side-effect-free, so the boolean is the same in
                    // any order.
                    if let Some((start, end)) = run_resident {
                        if idx >= start && idx < end {
                            return true;
                        }
                    }
                    let block = BlockId::new(key.file, idx);
                    if pending.contains_key(&FetchKey { scope, block }) {
                        return true;
                    }
                    if local_only {
                        return cache.contains_local(scope.expect("local scope"), block);
                    }
                    if aggressive_walk {
                        // An aggressive walk rescans already-resident
                        // data after every restart (up to the engine's
                        // cached-run cutoff), and those queries are
                        // overwhelmingly sequential: ask for the whole
                        // resident run once instead of point-probing
                        // it block by block.
                        let run = cache.resident_run(block, WALK_RUN_PROBE);
                        if run > 0 {
                            run_resident = Some((idx, idx + u64::from(run)));
                            true
                        } else {
                            false
                        }
                    } else {
                        cache.contains(block)
                    }
                };
                let next = if extent_mode {
                    engine.next_extent_obs(extent_blocks, is_cached, &mut obs)
                } else {
                    engine.next_block_obs(is_cached, &mut obs).map(|b| (b, 1))
                };
                match next {
                    Some(unit) => to_issue.push(unit),
                    None => break,
                }
            }
        }
        for (first, count) in to_issue.drain(..) {
            // The prefetcher's coalescing scope is its own key scope:
            // global for the PAFS per-file server, per-node for xFS.
            let fkey = FetchKey {
                scope: key.node,
                block: BlockId::new(key.file, first),
            };
            for member in run_keys(fkey, count) {
                self.pending.insert(
                    member,
                    PendingFetch {
                        prefetch: true,
                        demanded: false,
                        pf_owner: Some(id),
                        node: home,
                        waiters: self.waiters_pool.pop().unwrap_or_default(),
                        svc: None,
                        failover: SimDuration::ZERO,
                    },
                );
            }
            // Disk-level prefetch jobs serve no demand read (yet): the
            // causal link to the parent demand lives in the
            // `PrefetchIssue`/`ExtentIssue` events the engine emitted.
            if count == 1 {
                self.issue_fetch(fkey, true, NO_RID, now);
            } else {
                self.issue_fetch_run(fkey, count, now);
            }
        }
        self.scratch_issue = to_issue;
        // Post-pump linear-limit audit: the engine's in-flight units
        // (extent batches count one each) must respect the configured
        // aggressiveness.
        if self.oracle.is_some() {
            if let Some(limit) = self.config.prefetch.aggressive {
                let (in_flight, cap) = (self.engines[id as usize].pf.in_flight(), limit.cap());
                oracle_check!(self, now, |o| o.check_limit(key.file.0, in_flight, cap));
            }
        }
    }

    // ----- write-back ----------------------------------------------------

    fn sweep(&mut self, now: SimTime, reschedule: bool) {
        let dirty = self.cache.sweep_dirty();
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::SweepStart {
                    dirty: dirty.len() as u32,
                },
            );
        }
        for block in dirty {
            self.issue_disk_write(block, now);
        }
        if reschedule && self.active_procs > 0 {
            self.queue
                .schedule(now + self.config.writeback_period, Ev::Sweep);
        }
    }

    // ----- misc ----------------------------------------------------------

    /// What handing a `blocks`-block request to its reader costs.
    fn transfer_cost(&self, blocks: u64, all_local: bool) -> SimDuration {
        let priced = if all_local {
            &self.delivery.local
        } else {
            &self.delivery.remote
        };
        match priced.get(blocks as usize) {
            Some(&d) => d,
            None => {
                let m = &self.config.machine;
                let bytes = blocks * m.block_size;
                if all_local {
                    m.local_transfer(bytes)
                } else {
                    m.remote_transfer(bytes)
                }
            }
        }
    }

    /// Split the final-delivery cost into span components. A local
    /// delivery is pure memory copy (`transfer`); a remote one is the
    /// startup hops (`coordination` — the zero-byte cost of the link,
    /// i.e. the messaging needed to locate and request the copy) plus
    /// the wire time for the payload (`network`). The components sum
    /// exactly to [`transfer_cost`](Self::transfer_cost).
    fn delivery_breakdown(&self, blocks: u64, all_local: bool) -> SpanBreakdown {
        let mut b = SpanBreakdown::default();
        if all_local {
            b.transfer = self.transfer_cost(blocks, true);
        } else {
            let total = self.transfer_cost(blocks, false);
            b.coordination = self.delivery.remote[0].min(total);
            b.network = total - b.coordination;
        }
        b
    }

    /// Attribute a completed read's end-to-end latency to span
    /// components, using the service record of the fetch that finished
    /// last (`svc`), the failover time that fetch accrued across
    /// outages, the delivery split, and any network-fault extras. The
    /// components sum exactly to the latency
    /// [`request_done`](Self::request_done) will record:
    /// `disk_done - started` for the disk part plus the delivery cost
    /// (including `net_retry + net_delay`).
    #[allow(clippy::too_many_arguments)]
    fn record_read_span(
        &mut self,
        req_idx: ReqId,
        svc: Option<FetchSvc>,
        failover: SimDuration,
        disk_done: SimTime,
        blocks: u64,
        all_local: bool,
        net_retry: SimDuration,
        net_delay: SimDuration,
    ) {
        let req = &self.reqs[req_idx];
        let started = req.started;
        let mut b = self.delivery_breakdown(blocks, all_local);
        b.retry += net_retry;
        b.network += net_delay;
        match svc {
            Some(svc) if svc.begin >= started => {
                // The read waited for the fetch to be dispatched: the
                // wait splits into failover (time lost to outages,
                // clamped — it is a subset of the wait by construction)
                // and plain queueing; the service splits into the retry
                // surcharge (transient errors) and the successful
                // attempt's mechanics, whose seek component is the
                // remainder — so the parts always sum to
                // `disk_done - started` exactly (under the fixed model
                // the whole read seek constant lands in `seek`).
                let raw_queue = svc.begin.saturating_since(started);
                b.failover = failover.min(raw_queue);
                b.queue = raw_queue - b.failover;
                let retry = svc.cost.retry.min(svc.cost.total);
                b.retry += retry;
                let net = svc.cost.total - retry;
                b.rotation = svc
                    .cost
                    .mech
                    .map_or(SimDuration::ZERO, |m| m.rot_wait)
                    .min(net);
                let platter = SimDuration::transfer(
                    self.config.machine.block_size,
                    self.config.machine.disk_bandwidth,
                );
                let after_rot = net - b.rotation;
                b.disk_transfer = platter.min(after_rot);
                b.seek = after_rot - b.disk_transfer;
            }
            _ => {
                // The read joined mid-service (e.g. a late prefetch
                // already on the platter): only the tail of the service
                // overlapped its lifetime, and it is all transfer-ish.
                b.disk_transfer = disk_done.saturating_since(started);
            }
        }
        let outcome = if req.joined_prefetch && !req.fresh_miss {
            ReadOutcome::LatePrefetch
        } else {
            ReadOutcome::Miss
        };
        let rid = req.rid;
        let slack = disk_done.saturating_since(started);
        // `slack + delivery` is exactly the latency `request_done`
        // will record for this read; the oracle makes the equality a
        // release-mode check when enabled.
        let expect = slack + self.transfer_cost(blocks, all_local) + net_retry + net_delay;
        debug_assert_eq!(
            b.total(),
            expect,
            "span components must sum to the request latency"
        );
        oracle_check!(self, disk_done, |o| o.check_span(rid, b.total(), expect));
        self.metrics.record_span(started, &b, outcome, slack);
    }

    // ----- faults --------------------------------------------------------

    /// Put an outage-aborted job back at the front of its disk's queue.
    /// The elapsed abort -> stale-completion time is credited to the
    /// job's pending fetches as failover wait (the requeue is the
    /// issuer's timeout-and-retry in one step).
    fn requeue_aborted(&mut self, disk: usize, seq: u64, now: SimTime) {
        // Stale completions arrive in abort order unless a job's
        // retry-inflated service outlasts a whole outage period, so the
        // record is usually, but not always, the oldest.
        let fifo = &mut self.aborted[disk];
        let k = fifo
            .iter()
            .position(|a| a.job.0 == seq)
            .expect("stale completion with no abort record");
        let AbortedJob {
            prio,
            rid,
            at: aborted_at,
            job: (_, job),
        } = fifo.remove(k).expect("found above");
        oracle_check!(self, now, |o| o.check_requeue(disk as u32, seq, rid, prio));
        self.add_failover(job, now.saturating_since(aborted_at));
        let (op, block, blocks) = match job {
            DiskJob::Fetch(key) => (DeviceOp::Read, key.block, 1),
            DiskJob::FetchRun { first, count } => (DeviceOp::Read, first.block, count),
            DiskJob::Write(b) => (DeviceOp::Write, b, 1),
        };
        let spec = JobSpec {
            op,
            pos: self.disk_models[disk].lba_of(block.file.0, block.index),
            bytes: self.config.machine.block_size * u64::from(blocks),
            blocks,
            rid,
        };
        {
            let Simulation { disks, rec, .. } = self;
            disks[disk].requeue_front(now, prio, spec, job, rec);
        }
        let started =
            self.with_disk_model(disk, |st, model, rec| st.dispatch_idle(now, model, rec));
        if let Some(started) = started {
            self.after_start(disk, now, started);
        }
    }

    /// Credit `d` of failover wait to every pending fetch `tag`
    /// carries, so the reads waiting on them attribute outage time to
    /// the `failover` span component. Writes wait on nothing.
    fn add_failover(&mut self, tag: DiskJob, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        match tag {
            DiskJob::Fetch(key) => {
                if let Some(pf) = self.pending.get_mut(&key) {
                    pf.failover += d;
                }
            }
            DiskJob::FetchRun { first, count } => {
                for key in run_keys(first, count) {
                    if let Some(pf) = self.pending.get_mut(&key) {
                        pf.failover += d;
                    }
                }
            }
            DiskJob::Write(_) => {}
        }
    }

    /// A disk outage window opens: abort the in-service job (its stale
    /// completion becomes the requeue trigger) and hold the queue until
    /// [`disk_up`](Self::disk_up).
    fn disk_down(&mut self, disk: usize, now: SimTime) {
        if self.active_procs == 0 {
            return;
        }
        let w = self
            .faults
            .as_ref()
            .expect("disk outage event without fault state")
            .plan
            .outage
            .expect("disk outage event without a window");
        let aborted = {
            let Simulation { disks, rec, .. } = self;
            disks[disk].abort_current(now, rec)
        };
        if let Some((prio, rid)) = aborted {
            let job = self.in_service[disk]
                .take()
                .expect("aborted job was in service");
            let seq = self.done_seq[disk];
            self.aborted[disk].push_back(AbortedJob {
                prio,
                rid,
                at: now,
                job: (seq, job),
            });
            if let Some(o) = self.oracle.as_mut() {
                o.job_aborted(disk as u32, seq, rid, prio);
            }
            // Invalidate the outstanding completion: its arrival now
            // means "requeue", not "done".
            self.done_seq[disk] += 1;
            if let Some(fs) = &mut self.faults {
                fs.stats.failovers += 1;
            }
            if self.rec.enabled() {
                self.rec.record(
                    now.as_nanos(),
                    Event::Failover {
                        disk: disk as u32,
                        rid,
                    },
                );
            }
        }
        self.disks[disk].hold();
        self.last_down[disk] = now;
        if let Some(fs) = &mut self.faults {
            fs.stats.disk_outages += 1;
        }
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::DiskOutage {
                    disk: disk as u32,
                    up: false,
                },
            );
        }
        // Always scheduled once the hold took effect, so held queues
        // are guaranteed to drain even if every process finishes during
        // the window.
        self.queue.schedule(now + w.len, Ev::DiskUp { disk });
        self.edge_checks(now);
    }

    /// A disk outage window closes: credit the held jobs' wait as
    /// failover time, release the queue, and restart dispatch.
    fn disk_up(&mut self, disk: usize, now: SimTime) {
        let held: Vec<(DiskJob, SimDuration)> = self.disks[disk]
            .held_overlap(self.last_down[disk], now)
            .into_iter()
            .map(|(tag, d)| (*tag, d))
            .collect();
        for (tag, d) in held {
            self.add_failover(tag, d);
        }
        self.disks[disk].release();
        let started =
            self.with_disk_model(disk, |st, model, rec| st.dispatch_idle(now, model, rec));
        if let Some(started) = started {
            self.after_start(disk, now, started);
        }
        if self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::DiskOutage {
                    disk: disk as u32,
                    up: true,
                },
            );
        }
        if self.active_procs > 0 {
            let w = self
                .faults
                .as_ref()
                .expect("disk outage event without fault state")
                .plan
                .outage
                .expect("disk outage event without a window");
            self.queue
                .schedule(now + (w.period - w.len), Ev::DiskDown { disk });
        }
        self.edge_checks(now);
    }

    /// A node outage window opens: the node disconnects from the
    /// cooperative cache (degraded mode) but keeps running locally.
    fn node_down(&mut self, node: u32, now: SimTime) {
        if self.active_procs == 0 {
            return;
        }
        let w = self
            .faults
            .as_ref()
            .expect("node outage event without fault state")
            .plan
            .node_outage
            .expect("node outage event without a window");
        self.cache.set_degraded(NodeId(node), true);
        if let Some(o) = self.oracle.as_mut() {
            o.set_degraded(node, true);
        }
        if let Some(fs) = &mut self.faults {
            fs.degraded_enter(node as usize, now);
        }
        if self.rec.enabled() {
            self.rec
                .record(now.as_nanos(), Event::DegradedEnter { node });
        }
        self.queue.schedule(now + w.len, Ev::NodeUp { node });
        self.edge_checks(now);
    }

    /// A node outage window closes: the node rejoins the cooperative
    /// cache — with its buffers intact by default, or cold (wiped)
    /// under the `node-outage-wipe` fault mode, which models a crash
    /// and restart rather than a network partition. Wiped dirty blocks
    /// are lost, not written back: the crash took them.
    fn node_up(&mut self, node: u32, now: SimTime) {
        let wipe = self
            .faults
            .as_ref()
            .is_some_and(|fs| fs.plan.node_outage_wipe);
        if wipe {
            self.cache.wipe_node(NodeId(node));
        }
        self.cache.set_degraded(NodeId(node), false);
        if let Some(o) = self.oracle.as_mut() {
            o.set_degraded(node, false);
        }
        if let Some(fs) = &mut self.faults {
            fs.degraded_exit(node as usize, now);
        }
        if self.rec.enabled() {
            self.rec
                .record(now.as_nanos(), Event::DegradedExit { node });
        }
        if self.active_procs > 0 {
            let w = self
                .faults
                .as_ref()
                .expect("node outage event without fault state")
                .plan
                .node_outage
                .expect("node outage event without a window");
            self.queue
                .schedule(now + (w.period - w.len), Ev::NodeDown { node });
        }
        self.edge_checks(now);
    }

    /// Price network faults on one remote delivery of `blocks`: the
    /// zero-byte coordination hop draws against the control retry
    /// budget, the payload against the data budget. Returns the extra
    /// `(retry, delay)` time — both zero when no plan is active, so
    /// fault-free deliveries cost exactly what they always did.
    fn net_fault_extra(
        &mut self,
        blocks: u64,
        rid: u32,
        now: SimTime,
    ) -> (SimDuration, SimDuration) {
        if !self.faults.as_ref().is_some_and(|fs| fs.plan.net_active()) {
            return (SimDuration::ZERO, SimDuration::ZERO);
        }
        let total = self.transfer_cost(blocks, false);
        let coord = self.delivery.remote[0].min(total);
        let payload = total - coord;
        let fs = self.faults.as_mut().expect("checked above");
        let e1 = fs.net_extra(NetClass::Control, coord);
        let e2 = fs.net_extra(NetClass::Data, payload);
        let retry = e1.retry + e2.retry;
        let delay = e1.delay + e2.delay;
        let lost = e1.lost + e2.lost;
        if (lost > 0 || delay > SimDuration::ZERO) && self.rec.enabled() {
            self.rec.record(
                now.as_nanos(),
                Event::NetFault {
                    lost: lost.min(255) as u8,
                    delayed: delay > SimDuration::ZERO,
                    rid,
                },
            );
        }
        (retry, delay)
    }

    fn finish(mut self) -> (SimReport, R) {
        let end = self.queue.now();
        // End-of-run conservation: every issued read completed exactly
        // once, nothing is still in flight, and the cache's copy
        // accounting balances.
        if let Some(o) = self.oracle.as_ref() {
            if let Err(e) = o.end_of_run(self.pending.len()) {
                self.invariant_violation(e, end);
            }
        }
        self.edge_checks(end);
        if let Some(fs) = &mut self.faults {
            fs.degraded_finalize(end);
        }
        self.cache.finalize();
        let cache_stats = *self.cache.stats();

        let mut pf_stats = PrefetchStats::default();
        for engine in &self.engines {
            pf_stats.merge(&engine.pf.stats());
        }

        let used = cache_stats.prefetch_used + self.metrics.prefetch_absorbed;
        let wasted = cache_stats.prefetch_wasted;
        let mispredict_ratio = if used + wasted == 0 {
            0.0
        } else {
            wasted as f64 / (used + wasted) as f64
        };

        let disk_utilization = if self.disks.is_empty() {
            0.0
        } else {
            self.disks.iter().map(|d| d.utilization(end)).sum::<f64>() / self.disks.len() as f64
        };

        let wpb = &self.metrics.writes_per_block;
        let writes_per_block = if wpb.is_empty() {
            0.0
        } else {
            // Sum in integers: an f64 sum would depend on the map's
            // iteration order.
            let total: u64 = wpb.values().map(|&c| u64::from(c)).sum();
            total as f64 / wpb.len() as f64
        };

        let mut obs = lapobs::Registry::default();
        self.metrics.register_into(&mut obs);
        cache_stats.register_into(&mut obs, "cache");
        pf_stats.register_into(&mut obs, "prefetch");
        for (i, d) in self.disks.iter().enumerate() {
            let prefix = format!("disk{i}");
            d.stats().register_into(&mut obs, &prefix);
            obs.time_weighted(format!("{prefix}.queue_len"), d.mean_queue_len(end));
            obs.gauge(format!("{prefix}.utilization"), d.utilization(end));
            if let Some(mech) = self.disk_models[i].stats() {
                mech.register_into(&mut obs, &prefix);
            }
        }
        let fstats = self.faults.as_ref().map(|fs| fs.stats).unwrap_or_default();
        fstats.register_into(&mut obs);
        let degraded_s = self.faults.as_ref().map_or(0.0, |fs| fs.degraded_total_s());
        obs.gauge("fault.degraded_s", degraded_s);
        if let Some(fs) = &self.faults {
            for (n, s) in fs.degraded_residency() {
                obs.gauge(format!("fault.node{n}.degraded_s"), s);
            }
        }
        // Predictor-registry metrics, summed over the per-file
        // predictors in creation order.
        let (mut pred_emits, mut pred_hits, mut pred_table, mut pred_mined) = (0u64, 0, 0, 0);
        for engine in &self.engines {
            let p = engine.pf.predictor();
            pred_emits += p.emits();
            pred_hits += p.hits();
            pred_table += p.table_size();
            pred_mined += p.mined();
        }
        obs.counter("pred.emits", pred_emits);
        obs.counter("pred.hits", pred_hits);
        obs.counter("pred.mined", pred_mined);
        obs.gauge("pred.table_size", pred_table as f64);
        obs.text("pred.name", self.config.prefetch.predictor_name());
        obs.gauge("sim.disk_utilization", disk_utilization);
        obs.gauge("sim.mispredict_ratio", mispredict_ratio);
        obs.gauge("sim.seconds", end.as_secs_f64());
        // Identity rows, so an exported metrics file is self-describing
        // (lapreport keys its tables on them).
        obs.text("sim.label", self.config.label());
        obs.text("sim.workload", self.workload.name.as_str());

        let report = SimReport {
            label: self.config.label(),
            workload: self.workload.name.clone(),
            avg_read_ms: self.metrics.read_time.mean(),
            read_p50_ms: self.metrics.read_hist.quantile(0.5).as_millis_f64(),
            read_p95_ms: self.metrics.read_hist.quantile(0.95).as_millis_f64(),
            read_p99_ms: self.metrics.read_hist.quantile(0.99).as_millis_f64(),
            reads: self.metrics.read_time.count(),
            warmup_reads: self.metrics.read_time_warmup.count(),
            avg_write_ms: self.metrics.write_time.mean(),
            writes: self.metrics.write_time.count(),
            warmup_writes: self.metrics.warmup_writes,
            disk_reads_demand: self.metrics.disk_reads_demand,
            disk_reads_prefetch: self.metrics.disk_reads_prefetch,
            disk_writes: self.metrics.disk_writes,
            writes_per_block,
            cache: cache_stats,
            prefetch: pf_stats,
            prefetch_absorbed: self.metrics.prefetch_absorbed,
            mispredict_ratio,
            disk_utilization,
            faults_injected: fstats.injected,
            failovers: fstats.failovers,
            degraded_s,
            sim_seconds: end.as_secs_f64(),
            read_time_series: self
                .metrics
                .read_series
                .iter()
                .enumerate()
                .map(|(i, s)| crate::metrics::TimeBucket {
                    start_s: i as f64 * self.config.metrics_interval.as_secs_f64(),
                    mean_ms: s.mean(),
                    reads: s.count(),
                })
                .collect(),
            obs,
        };
        (report, self.rec)
    }
}
