//! The traced run: per-layer counts, modelled ratios, host time per
//! call of each layer, phase times, and the cost of tracing and of the
//! invariant oracle.
//!
//! Every cell runs three times: untraced (the reference digest and the
//! phase times), with the oracle forced on, and with a benchmark-owned
//! [`Capture`] recorder. All three must produce the same report. Every
//! cell then also runs, oracle on and untimed, on the trace the
//! generator makes from the seed itself (see [`gate_unseen`]).
//! Host time per call is measured by replaying one cell's own inputs
//! (its trace and the event stream the recorder captured) through each
//! layer's public API, timed from here; no timer runs inside the
//! program.

use std::collections::HashMap;
use std::hint::black_box;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use bench::Scale;
use coopcache::{
    BlockId, CacheStats, CooperativeCache, FileId, InsertOrigin, LocalOnlyCache, Lookup, NodeId,
    PafsCache, XfsCache,
};
use ioworkload::{Op, Workload};
use lap_core::{CacheSystem, CheckMode, SimConfig};
use lapobs::{Event, Nanos, NoopRecorder, Recorder, StationKind};
use predict::{FilePredictor, Request, Walk};
use prefetch::FilePrefetcher;
use simkit::{DeviceOp, EventQueue, JobSpec, ServiceModel, SimTime};

use crate::workload::{check, ingest, run_cell, Bench, CellRun, TraceCounts};
use crate::{Metric, Outcome};

/// The benchmark's own recorder. Every cell counts the events it
/// receives; the replay cell also keeps the streams the replays need.
pub struct Capture {
    keep: bool,
    pub events: u64,
    /// `(time, queue depth after the pop)` for every event popped.
    pub pops: Vec<(Nanos, u32)>,
    /// `(time, disk, priority class)` for every disk job started.
    pub disk_jobs: Vec<(Nanos, u32, u8)>,
    /// `(issuing process, read id)` of every completed read and write,
    /// in completion order; writes carry [`lapobs::NO_RID`].
    pub done: Vec<(u32, u32)>,
    /// Prefetched blocks issued under each read's walk, by read id.
    pub issued: Vec<u32>,
}

impl Capture {
    pub fn new(keep: bool) -> Self {
        Capture {
            keep,
            events: 0,
            pops: Vec::new(),
            disk_jobs: Vec::new(),
            done: Vec::new(),
            issued: Vec::new(),
        }
    }
}

impl Recorder for Capture {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, t: Nanos, ev: Event) {
        self.events += 1;
        if !self.keep {
            return;
        }
        match ev {
            Event::SimQueueDepth { depth } => self.pops.push((t, depth)),
            Event::ServiceBegin { station, class, .. } if station.kind == StationKind::Disk => {
                self.disk_jobs.push((t, station.index, class))
            }
            Event::ReadDone { proc, rid, .. } => self.done.push((proc, rid)),
            Event::WriteDone { proc, .. } => self.done.push((proc, lapobs::NO_RID)),
            Event::PrefetchIssue { rid, .. } if rid != lapobs::NO_RID => {
                let i = rid as usize;
                if self.issued.len() <= i {
                    self.issued.resize(i + 1, 0);
                }
                self.issued[i] += 1;
            }
            _ => {}
        }
    }
}

/// Host time and call count of one layer's replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub calls: u64,
    pub time: Duration,
}

impl Timed {
    pub fn ns_per_call(&self) -> f64 {
        self.time.as_nanos() as f64 / self.calls.max(1) as f64
    }
}

/// Replay the event queue: schedule the captured event times so that
/// the depth after every pop is the captured depth, popping once per
/// captured event. The calls are schedules plus pops.
pub fn replay_queue(cfg: &SimConfig, pops: &[(Nanos, u32)]) -> Timed {
    let mut q: EventQueue<u32> = EventQueue::with_backend(cfg.event_queue);
    let mut scheduled = 0usize;
    let t = Instant::now();
    for (i, &(_, depth)) in pops.iter().enumerate() {
        // Depth drops by at most one per pop, so this target never
        // shrinks and every captured event is scheduled exactly once.
        let target = (i + 1 + depth as usize).min(pops.len());
        while scheduled < target {
            q.schedule(SimTime::from_nanos(pops[scheduled].0), scheduled as u32);
            scheduled += 1;
        }
        black_box(q.pop());
    }
    Timed {
        calls: (scheduled + pops.len()) as u64,
        time: t.elapsed(),
    }
}

/// Replay disk pricing: one `DiskModel` per disk, priced for every
/// captured job start (class 1 is a write-back, the rest are reads).
pub fn replay_devmodel(cfg: &SimConfig, jobs: &[(Nanos, u32, u8)]) -> Timed {
    let mut models: Vec<_> = (0..cfg.machine.disks)
        .map(|_| cfg.machine.build_disk_model())
        .collect();
    let t = Instant::now();
    for &(at, disk, class) in jobs {
        let spec = JobSpec {
            op: if class == 1 {
                DeviceOp::Write
            } else {
                DeviceOp::Read
            },
            pos: None,
            bytes: cfg.machine.block_size,
            blocks: 1,
            rid: lapobs::NO_RID,
        };
        black_box(models[disk as usize].service(SimTime::from_nanos(at), &spec));
    }
    Timed {
        calls: jobs.len() as u64,
        time: t.elapsed(),
    }
}

/// One application read or write, in the order the run completed them.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    pub node: NodeId,
    pub file: FileId,
    pub req: Request,
    pub write: bool,
    /// Blocks the run prefetched under this read's walk.
    pub prefetched: u32,
}

/// Rebuild the run's global order of reads and writes: the k-th
/// completion of a process is its k-th I/O operation.
pub fn demand_stream(wl: &Workload, capture: &Capture) -> Vec<Demand> {
    let mut cursor = vec![0usize; wl.processes.len()];
    capture
        .done
        .iter()
        .filter_map(|&(p, rid)| {
            let proc = wl.processes.get(p as usize)?;
            let c = &mut cursor[p as usize];
            while let Some(op) = proc.ops.get(*c) {
                *c += 1;
                if let Op::Read { file, offset, len } | Op::Write { file, offset, len } = *op {
                    return Some(Demand {
                        node: proc.node,
                        file,
                        req: Request::from_bytes(offset, len, wl.block_size)?,
                        write: matches!(op, Op::Write { .. }),
                        prefetched: capture.issued.get(rid as usize).copied().unwrap_or(0),
                    });
                }
            }
            None
        })
        .collect()
}

/// The cooperative cache a cell's simulation builds.
pub fn build_cache(cfg: &SimConfig) -> Box<dyn CooperativeCache> {
    let (nodes, blocks) = (cfg.machine.nodes, cfg.blocks_per_node());
    match cfg.system {
        CacheSystem::Pafs => Box::new(PafsCache::with_layout(
            nodes,
            blocks,
            cfg.replacement,
            cfg.meta_layout,
        )),
        CacheSystem::Xfs => Box::new(XfsCache::with_layout(
            nodes,
            blocks,
            XfsCache::DEFAULT_N_CHANCE,
            0x9E37_79B9,
            cfg.meta_layout,
        )),
        CacheSystem::LocalOnly => {
            Box::new(LocalOnlyCache::with_policy(nodes, blocks, cfg.replacement))
        }
    }
}

/// How far one residency query of the prefetch walk looks, as in the
/// simulator.
const WALK_RUN_PROBE: u32 = 64;
/// Demands driven per chunk: bounds the call logs' memory.
const CHUNK: usize = 20_000;

#[derive(Clone, Copy)]
enum CacheCall {
    Access(NodeId, BlockId, bool),
    Insert(NodeId, BlockId, InsertOrigin, bool),
    ResidentRun(BlockId),
}

#[derive(Clone, Copy)]
enum PfCall {
    Demand(u32, Request, bool),
    Next(u32),
    Complete(u32),
}

/// The predictor calls an engine made, read off its predictor's
/// counters around each engine call.
#[derive(Clone, Copy)]
enum PredCall {
    Observe(u32, Request),
    Predict(u32),
    StartWalk(u32),
    /// This many `walk_next` calls in a row.
    WalkNext(u32, u64),
}

/// Allowed range of a replay's call count over the run's, for the
/// replay cell: within a factor of 1.5 either way. The replays land
/// every fetch at once, so their walks skip fewer blocks than the
/// run's where disks are slow (0.78-1.03 at paper scale); outside this
/// range they no longer stand for the run's call mix. Enforced at
/// paper scale, where the per-call times are reported: on the tiny
/// test traces the xFS walk is too short to settle (about 0.45).
pub const REPLAY_RATIO: (f64, f64) = (1.0 / 1.5, 1.5);

/// The cache, prefetch and predictor replays.
///
/// A recording pass (untimed) pushes the demand stream through a cache and the
/// prefetch engines the way the simulator does — demand accesses,
/// insert on miss, the engine told of each read, its walk pumped with
/// `resident_run` residency queries, every issued block inserted as a
/// prefetch — with fetches landing at once. It logs every call, and
/// the predictor calls each engine made inside its own calls. Fresh
/// instances then replay each layer's log alone, timed; being
/// deterministic, they reach the recording pass's exact state. The
/// predictor replay drives `observe`, `predict`, `start_walk` and
/// `walk_next` on bare `FilePredictor`s; its calls are table lookups
/// plus updates, as in the run's counters.
pub struct LayerReplay {
    pub cache: Timed,
    pub prefetch: Timed,
    pub predict: Timed,
    /// The recording pass and the replays ended in the same state.
    pub consistent: bool,
}

pub fn replay_layers(cfg: &SimConfig, wl: &Workload, demands: &[Demand]) -> LayerReplay {
    let prefetches = cfg.prefetch.prefetches();
    let mut cache = build_cache(cfg);
    let mut engines: Vec<FilePrefetcher> = Vec::new();
    let mut engine_blocks: Vec<u64> = Vec::new();
    let mut engine_ids: HashMap<(Option<NodeId>, FileId), u32> = HashMap::new();

    let mut t_cache = build_cache(cfg);
    let mut t_engines: Vec<FilePrefetcher> = Vec::new();
    let mut t_preds: Vec<FilePredictor> = Vec::new();
    let (mut cache_t, mut pf_t, mut pred_t) =
        (Timed::default(), Timed::default(), Timed::default());

    let mut t_walks: Vec<Option<Walk>> = Vec::new();
    let (mut cache_log, mut pf_log, mut pred_log, mut answers) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for chunk in demands.chunks(CHUNK) {
        for d in chunk {
            let mut covered = true;
            for b in d.req.blocks() {
                let block = BlockId::new(d.file, b);
                cache_log.push(CacheCall::Access(d.node, block, d.write));
                if cache.access(d.node, block, d.write).lookup == Lookup::Miss {
                    covered = false;
                    cache_log.push(CacheCall::Insert(
                        d.node,
                        block,
                        InsertOrigin::Demand,
                        d.write,
                    ));
                    cache.insert(d.node, block, InsertOrigin::Demand, d.write);
                }
            }
            if d.write || !prefetches {
                continue;
            }
            let scope = (cfg.system == CacheSystem::Xfs).then_some(d.node);
            let home = scope.unwrap_or_else(|| coopcache::server_node(d.file, cfg.machine.nodes));
            let id = *engine_ids.entry((scope, d.file)).or_insert_with(|| {
                let blocks = wl.file_blocks(d.file);
                engines.push(FilePrefetcher::new(cfg.prefetch, blocks));
                engine_blocks.push(blocks);
                (engines.len() - 1) as u32
            });
            let engine = &mut engines[id as usize];
            pf_log.push(PfCall::Demand(id, d.req, covered));
            let before = PredMark::of(engine);
            engine.on_demand_with_residency(d.req, covered);
            before.log_demand(engine, id, d.req, &mut pred_log);
            pf_t.calls += 1;
            // Pump the walk for as many blocks as the demand consumed,
            // or as the run prefetched under this read if more; each
            // issued block lands at once.
            let mut resident: Option<(u64, u64)> = None;
            for _ in 0..d.req.size.max(u64::from(d.prefetched)) {
                pf_log.push(PfCall::Next(id));
                let before = PredMark::of(engine);
                let next = engine.next_block(|idx| {
                    let hit = match resident {
                        Some((lo, hi)) if idx >= lo && idx < hi => true,
                        _ => {
                            let block = BlockId::new(d.file, idx);
                            cache_log.push(CacheCall::ResidentRun(block));
                            let run = cache.resident_run(block, WALK_RUN_PROBE);
                            resident = (run > 0).then_some((idx, idx + u64::from(run)));
                            run > 0
                        }
                    };
                    answers.push(hit);
                    hit
                });
                before.log_walk(engine, id, &mut pred_log);
                let Some(b) = next else { break };
                let block = BlockId::new(d.file, b);
                cache_log.push(CacheCall::Insert(
                    home,
                    block,
                    InsertOrigin::Prefetch,
                    false,
                ));
                cache.insert(home, block, InsertOrigin::Prefetch, false);
                resident = None;
                pf_log.push(PfCall::Complete(id));
                engine.on_prefetch_complete();
            }
        }

        let t = Instant::now();
        for &c in &cache_log {
            match c {
                CacheCall::Access(n, b, w) => {
                    black_box(t_cache.access(n, b, w));
                }
                CacheCall::Insert(n, b, o, dirty) => {
                    black_box(t_cache.insert(n, b, o, dirty));
                }
                CacheCall::ResidentRun(b) => {
                    black_box(t_cache.resident_run(b, WALK_RUN_PROBE));
                }
            }
        }
        cache_t.time += t.elapsed();

        while t_engines.len() < engines.len() {
            let blocks = engine_blocks[t_engines.len()];
            t_engines.push(FilePrefetcher::new(cfg.prefetch, blocks));
            t_preds.push(FilePredictor::new(
                cfg.prefetch.algorithm,
                cfg.prefetch.edge_choice,
            ));
            t_walks.push(None);
        }
        let mut next_answer = answers.iter().copied();
        let t = Instant::now();
        for &c in &pf_log {
            match c {
                PfCall::Demand(id, req, covered) => {
                    t_engines[id as usize].on_demand_with_residency(req, covered)
                }
                PfCall::Next(id) => {
                    black_box(t_engines[id as usize].next_block(|_| {
                        next_answer
                            .next()
                            .expect("one recorded answer per residency query")
                    }));
                }
                PfCall::Complete(id) => t_engines[id as usize].on_prefetch_complete(),
            }
        }
        pf_t.time += t.elapsed();

        let t = Instant::now();
        for &c in &pred_log {
            match c {
                PredCall::Observe(id, req) => t_preds[id as usize].observe(req),
                PredCall::Predict(id) => {
                    black_box(t_preds[id as usize].predict(engine_blocks[id as usize]));
                }
                PredCall::StartWalk(id) => {
                    t_walks[id as usize] = t_preds[id as usize].start_walk();
                }
                PredCall::WalkNext(id, n) => {
                    let (p, walk) = (&mut t_preds[id as usize], &mut t_walks[id as usize]);
                    for _ in 0..n {
                        let Some(w) = walk.as_mut() else { break };
                        if p.walk_next(w, engine_blocks[id as usize]).is_none() {
                            *walk = None;
                        }
                    }
                }
            }
        }
        pred_t.time += t.elapsed();

        cache_log.clear();
        pf_log.clear();
        pred_log.clear();
        answers.clear();
    }
    cache_t.calls = t_cache.meta_probes();
    pred_t.calls = t_preds
        .iter()
        .map(|p| p.table_lookups() + p.table_updates())
        .sum();
    LayerReplay {
        cache: cache_t,
        prefetch: pf_t,
        predict: pred_t,
        consistent: cache.stats() == t_cache.stats()
            && cache.meta_probes() == t_cache.meta_probes()
            && engines
                .iter()
                .zip(&t_engines)
                .all(|(a, b)| a.stats() == b.stats())
            && engines.iter().zip(&t_preds).all(|(a, b)| {
                let a = a.predictor();
                (a.table_lookups(), a.table_updates(), a.emits(), a.hits())
                    == (b.table_lookups(), b.table_updates(), b.emits(), b.hits())
            }),
    }
}

/// The cache and predictor replays' call counts next to the replay
/// cell's own counters: `(what, replayed, ran)`.
pub fn replay_vs_run(
    layers: &LayerReplay,
    k: &lap_core::ProfileCounters,
) -> [(&'static str, u64, u64); 2] {
    [
        ("cache probes", layers.cache.calls, k.cache_probes),
        (
            "predictor ops",
            layers.predict.calls,
            k.pred_lookups + k.pred_updates,
        ),
    ]
}

/// An engine's predictor counters and walk generation at one instant.
#[derive(Clone, Copy)]
struct PredMark {
    lookups: u64,
    updates: u64,
    walk_gen: u32,
}

impl PredMark {
    fn of(engine: &FilePrefetcher) -> Self {
        PredMark {
            lookups: engine.predictor().table_lookups(),
            updates: engine.predictor().table_updates(),
            walk_gen: engine.walk_gen(),
        }
    }

    /// Log what a demand did to the predictor: an `observe`, then a
    /// fresh walk (aggressive) or one `predict` per lookup (simple).
    fn log_demand(self, engine: &FilePrefetcher, id: u32, req: Request, log: &mut Vec<PredCall>) {
        let now = PredMark::of(engine);
        if now.updates > self.updates {
            log.push(PredCall::Observe(id, req));
        }
        if now.walk_gen != self.walk_gen {
            log.push(PredCall::StartWalk(id));
        }
        for _ in self.lookups..now.lookups {
            log.push(PredCall::Predict(id));
        }
    }

    /// Log the walk steps a `next_block` call took.
    fn log_walk(self, engine: &FilePrefetcher, id: u32, log: &mut Vec<PredCall>) {
        let steps = PredMark::of(engine).lookups - self.lookups;
        if steps > 0 {
            log.push(PredCall::WalkNext(id, steps));
        }
    }
}

/// Sums over cells of what the per-layer metrics are made of.
#[derive(Default)]
struct Totals {
    counters: lap_core::ProfileCounters,
    cache: CacheStats,
    reads: u64,
    pf_issued: u64,
    pf_absorbed: u64,
    on_path: u64,
    judged: u64,
    disk_demand: u64,
    disk_prefetch: u64,
    disk_writes: u64,
    disk_util: f64,
    disk_waited_s: f64,
    disk_dispatched: u64,
    construct: Duration,
    event_loop: Duration,
    report: Duration,
    prefetching_cells: u64,
}

impl Totals {
    fn add(&mut self, cfg: &SimConfig, c: &CellRun<NoopRecorder>) {
        let (k, p) = (&mut self.counters, &c.profile.counters);
        k.events += p.events;
        k.queue_pushes += p.queue_pushes;
        k.peak_queue_depth = k.peak_queue_depth.max(p.peak_queue_depth);
        k.queue_depth_ticks += p.queue_depth_ticks;
        k.station_dispatches += p.station_dispatches;
        k.pred_lookups += p.pred_lookups;
        k.pred_updates += p.pred_updates;
        k.cache_probes += p.cache_probes;
        let (s, r) = (&mut self.cache, &c.report.cache);
        s.local_hits += r.local_hits;
        s.remote_hits += r.remote_hits;
        s.misses += r.misses;
        s.prefetch_inserts += r.prefetch_inserts;
        s.prefetch_used += r.prefetch_used;
        s.prefetch_wasted += r.prefetch_wasted;
        s.forwards += r.forwards;
        s.invalidations += r.invalidations;
        let rep = &c.report;
        self.reads += rep.reads + rep.warmup_reads;
        self.pf_issued += rep.prefetch.issued;
        self.pf_absorbed += rep.prefetch_absorbed;
        self.on_path += rep.prefetch.requests_on_path;
        self.judged += rep.prefetch.requests_on_path + rep.prefetch.requests_off_path;
        self.disk_demand += rep.disk_reads_demand;
        self.disk_prefetch += rep.disk_reads_prefetch;
        self.disk_writes += rep.disk_writes;
        self.disk_util += rep.disk_utilization;
        for (name, value) in rep.obs.iter() {
            let disk =
                name.starts_with("disk") && name[4..].starts_with(|ch: char| ch.is_ascii_digit());
            match value {
                lapobs::MetricValue::Gauge(v) if disk && name.ends_with(".waited_s") => {
                    self.disk_waited_s += v
                }
                lapobs::MetricValue::Counter(v) if disk && name.ends_with(".dispatched") => {
                    self.disk_dispatched += v
                }
                _ => {}
            }
        }
        self.construct += c.construct;
        self.event_loop += c.profile.wall.event_loop;
        self.report += c.profile.wall.report;
        if cfg.prefetch.prefetches() {
            self.prefetching_cells += 1;
        }
    }
}

fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn loop_time<R>(runs: &[Result<CellRun<R>, String>]) -> Duration {
    runs.iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|c| c.profile.wall.event_loop)
        .sum()
}

/// Gate every cell, with the oracle on, on the trace the generator
/// makes from `seed` itself: held-out data whose shape the timed trace
/// does not share. Returns the oracle violations.
pub fn gate_unseen(bench: Bench, scale: Scale, seed: u64, out: &mut Outcome) -> u64 {
    let wl = ingest(&bench.unseen_trace_text(scale, seed));
    let counts = TraceCounts::of(&wl);
    let cells = bench.cells(scale);
    let runs = bench::par_map(&cells, bench.workers(), |cfg| {
        let mut cfg = cfg.clone();
        cfg.check = CheckMode::On;
        run_cell(&cfg, &wl, NoopRecorder).and_then(|c| check(&c.report, &counts))
    });
    let (mut violations, mut digests) = (0, Vec::new());
    for r in runs {
        out.attempted += 1;
        match r {
            Ok(d) => digests.push(d),
            Err(e) => {
                if e.contains("simcheck violation") {
                    violations += 1;
                }
                digests.push(0);
                out.fail(format!("unseen trace shape: {e}"));
            }
        }
    }
    out.note(format!(
        "unseen trace shape from generator seed {seed}: {} reads, {} writes, {} cells gated \
         oracle-on, digest={:016x}",
        counts.reads,
        counts.writes,
        cells.len(),
        crate::e2e::combined_digest(&digests)
    ));
    violations
}

pub fn run(bench: Bench, scale: Scale, text: &str, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let wl = ingest(text);
    let parse_s = t.elapsed().as_secs_f64();
    let counts = TraceCounts::of(&wl);
    let cells = bench.cells(scale);
    let workers = bench.workers();
    let replay_idx = bench.replay_cell(&cells);

    let plain = bench::par_map(&cells, workers, |cfg| {
        run_cell(cfg, &wl, NoopRecorder).map(|c| (c, std::thread::current().id()))
    });
    let checked = bench::par_map(&cells, workers, |cfg| {
        let mut cfg = cfg.clone();
        cfg.check = CheckMode::On;
        run_cell(&cfg, &wl, NoopRecorder)
    });
    let indexed: Vec<(usize, &SimConfig)> = cells.iter().enumerate().collect();
    let traced = bench::par_map(&indexed, workers, |&(i, cfg)| {
        run_cell(cfg, &wl, Capture::new(i == replay_idx))
    });

    let mut totals = Totals::default();
    let mut violations = 0u64;
    let mut digests = Vec::new();
    let mut spans: Vec<(Instant, Instant, ThreadId)> = Vec::new();
    for (i, cfg) in cells.iter().enumerate() {
        out.attempted += 3;
        let reference = match &plain[i] {
            Ok((c, tid)) => match check(&c.report, &counts) {
                Ok(d) => {
                    totals.add(cfg, c);
                    spans.push((c.start, c.end, *tid));
                    Some(d)
                }
                Err(e) => {
                    out.fail(e);
                    None
                }
            },
            Err(e) => {
                out.fail(e.clone());
                None
            }
        };
        digests.push(reference.unwrap_or(0));
        match &checked[i] {
            Ok(c) => match check(&c.report, &counts) {
                Ok(d) if Some(d) == reference || reference.is_none() => {}
                Ok(_) => out.fail(format!("{}: oracle-on digest differs", cfg.label())),
                Err(e) => out.fail(e),
            },
            Err(e) => {
                if e.contains("simcheck violation") {
                    violations += 1;
                }
                out.fail(e.clone());
            }
        }
        match &traced[i] {
            Ok(c) => match check(&c.report, &counts) {
                Ok(d) if Some(d) == reference || reference.is_none() => {}
                Ok(_) => out.fail(format!(
                    "{}: traced digest differs from untraced",
                    cfg.label()
                )),
                Err(e) => out.fail(e),
            },
            Err(e) => out.fail(e.clone()),
        }
    }

    violations += gate_unseen(bench, scale, seed, &mut out);

    let events_recorded: u64 = traced
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|c| c.recorder.events)
        .sum();
    let loop_s = totals.event_loop.as_secs_f64();
    let trace_overhead = frac(loop_time(&traced).as_secs_f64(), loop_s) - 1.0;
    let check_overhead = frac(loop_time(&checked).as_secs_f64(), loop_s) - 1.0;

    // Sweep occupancy: busy cell time over the workers' span, and how
    // long the first worker to run dry waited for the last.
    let (busy_frac, tail_idle) = match (
        spans.iter().map(|s| s.0).min(),
        spans.iter().map(|s| s.1).max(),
    ) {
        (Some(first), Some(last)) => {
            let busy: f64 = spans.iter().map(|s| (s.1 - s.0).as_secs_f64()).sum();
            let used = workers.min(cells.len()) as f64;
            let mut worker_end: HashMap<ThreadId, Instant> = HashMap::new();
            for &(_, end, tid) in &spans {
                let e = worker_end.entry(tid).or_insert(end);
                *e = (*e).max(end);
            }
            let earliest = worker_end.values().min().copied().unwrap_or(last);
            (
                frac(busy, used * (last - first).as_secs_f64()),
                (last - earliest).as_secs_f64(),
            )
        }
        _ => (0.0, 0.0),
    };

    // Host time per call, from the replay cell's own inputs.
    let rcfg = &cells[replay_idx];
    let capture = match traced.get(replay_idx) {
        Some(Ok(c)) => &c.recorder,
        _ => {
            out.mismatch("the replay cell's traced run failed; no per-call times".into());
            return out;
        }
    };
    let queue = replay_queue(rcfg, &capture.pops);
    let dev = replay_devmodel(rcfg, &capture.disk_jobs);
    let demands = demand_stream(&wl, capture);
    if demands.len() as u64 != counts.reads + counts.writes {
        out.mismatch(format!(
            "demand stream has {} operations, trace has {}",
            demands.len(),
            counts.reads + counts.writes
        ));
    }
    let layers = replay_layers(rcfg, &wl, &demands);
    if !layers.consistent {
        out.mismatch("layer replay diverged from its recording pass".into());
    }
    if let Some(Ok((c, _))) = plain.get(replay_idx) {
        let k = &c.profile.counters;
        if queue.calls != k.events + k.queue_pushes {
            out.mismatch(format!(
                "queue replay ran {} operations, the run {} events + {} pushes",
                queue.calls, k.events, k.queue_pushes
            ));
        }
        if dev.calls != k.station_dispatches {
            out.mismatch(format!(
                "devmodel replay priced {} jobs, the run dispatched {}",
                dev.calls, k.station_dispatches
            ));
        }
        let (lo, hi) = REPLAY_RATIO;
        for (what, replayed, ran) in replay_vs_run(&layers, k) {
            let ratio = frac(replayed as f64, ran as f64);
            out.note(format!(
                "replay vs run, {what}: {replayed} / {ran} = {ratio:.3} (allowed {lo:.3}..{hi:.3})"
            ));
            if scale == Scale::Paper && ran > 0 && !(lo..=hi).contains(&ratio) {
                out.mismatch(format!(
                    "{what}: replay/run ratio {ratio:.3} is outside {lo:.3}..{hi:.3}"
                ));
            }
        }
    }
    let k = &totals.counters;
    let demand_calls = (totals.prefetching_cells * counts.reads) as f64;
    let attributed_ns = (k.events + k.queue_pushes) as f64 * queue.ns_per_call()
        + k.cache_probes as f64 * layers.cache.ns_per_call()
        + demand_calls * layers.prefetch.ns_per_call()
        + k.station_dispatches as f64 * dev.ns_per_call();

    out.note(format!(
        "replay cell {} | queue {} ops | cache {} probes | prefetch {} demands | predict {} ops | devmodel {} jobs",
        rcfg.label(),
        queue.calls,
        layers.cache.calls,
        layers.prefetch.calls,
        layers.predict.calls,
        dev.calls
    ));
    out.note(format!(
        "coopcache.prefetch_used_frac base: {} prefetched blocks inserted",
        totals.cache.prefetch_inserts
    ));
    out.note(format!(
        "digest={:016x} (untraced; the oracle-on and traced runs must match it)",
        crate::e2e::combined_digest(&digests)
    ));
    out.note(format!(
        "failed_frac={}",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    let accesses = totals.cache.accesses() as f64;
    let used = (totals.cache.prefetch_used + totals.pf_absorbed) as f64;
    out.metrics = vec![
        Metric::new("simkit.events", k.events as f64, "count"),
        Metric::new("simkit.queue_pushes", k.queue_pushes as f64, "count"),
        Metric::new(
            "simkit.queue_depth_peak",
            k.peak_queue_depth as f64,
            "count",
        ),
        Metric::new("simkit.queue_depth_mean", k.mean_queue_depth(), "count"),
        Metric::new(
            "simkit.station_dispatches",
            k.station_dispatches as f64,
            "count",
        ),
        Metric::new("coopcache.probes", k.cache_probes as f64, "count"),
        Metric::new(
            "coopcache.probes_per_read",
            frac(k.cache_probes as f64, totals.reads as f64),
            "count",
        ),
        Metric::new("predict.lookups", k.pred_lookups as f64, "count"),
        Metric::new("predict.updates", k.pred_updates as f64, "count"),
        Metric::new("prefetch.issued", totals.pf_issued as f64, "count"),
        Metric::new("prefetch.absorbed", totals.pf_absorbed as f64, "count"),
        Metric::new(
            "devmodel.disk_reads_demand",
            totals.disk_demand as f64,
            "count",
        ),
        Metric::new(
            "devmodel.disk_reads_prefetch",
            totals.disk_prefetch as f64,
            "count",
        ),
        Metric::new("devmodel.disk_writes", totals.disk_writes as f64, "count"),
        Metric::new("ioworkload.records", counts.records as f64, "count"),
        Metric::new("bench.cells", cells.len() as f64, "count"),
        Metric::new("obs.events_recorded", events_recorded as f64, "count"),
        Metric::new("simcheck.violations", violations as f64, "count"),
        Metric::new(
            "coopcache.local_hit_frac",
            frac(totals.cache.local_hits as f64, accesses),
            "ratio",
        ),
        Metric::new(
            "coopcache.remote_hit_frac",
            frac(totals.cache.remote_hits as f64, accesses),
            "ratio",
        ),
        Metric::new(
            "coopcache.miss_frac",
            frac(totals.cache.misses as f64, accesses),
            "ratio",
        ),
        Metric::new(
            "coopcache.prefetch_used_frac",
            frac(
                totals.cache.prefetch_used as f64,
                totals.cache.prefetch_inserts as f64,
            ),
            "ratio",
        ),
        Metric::new("coopcache.forwards", totals.cache.forwards as f64, "count"),
        Metric::new(
            "coopcache.invalidations",
            totals.cache.invalidations as f64,
            "count",
        ),
        Metric::new(
            "predict.hit_frac",
            frac(totals.on_path as f64, totals.judged as f64),
            "ratio",
        ),
        Metric::new(
            "prefetch.mispredict_frac",
            frac(
                totals.cache.prefetch_wasted as f64,
                used + totals.cache.prefetch_wasted as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "simkit.disk_wait_ms",
            1e3 * frac(totals.disk_waited_s, totals.disk_dispatched as f64),
            "ms",
        ),
        Metric::new(
            "simkit.disk_util",
            totals.disk_util / cells.len() as f64,
            "ratio",
        ),
        Metric::new("simkit.queue_ns_per_op", queue.ns_per_call(), "ns"),
        Metric::new("coopcache.ns_per_probe", layers.cache.ns_per_call(), "ns"),
        Metric::new("predict.ns_per_op", layers.predict.ns_per_call(), "ns"),
        Metric::new(
            "prefetch.ns_per_demand",
            layers.prefetch.ns_per_call(),
            "ns",
        ),
        Metric::new("devmodel.ns_per_job", dev.ns_per_call(), "ns"),
        Metric::new("ioworkload.parse_s", parse_s, "s"),
        Metric::new(
            "ioworkload.parse_mb_per_s",
            frac(text.len() as f64 / 1e6, parse_s),
            "MB/s",
        ),
        Metric::new("core.construct_s", totals.construct.as_secs_f64(), "s"),
        Metric::new("core.loop_s", loop_s, "s"),
        Metric::new("core.report_s", totals.report.as_secs_f64(), "s"),
        Metric::new("core.unattributed_s", loop_s - attributed_ns / 1e9, "s"),
        Metric::new("bench.worker_busy_frac", busy_frac, "ratio"),
        Metric::new("bench.tail_idle_s", tail_idle, "s"),
        Metric::new("obs.trace_overhead_frac", trace_overhead, "ratio"),
        Metric::new("simcheck.overhead_frac", check_overhead, "ratio"),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_match_the_runs_counters() {
        for b in Bench::ALL {
            let wl = std::sync::Arc::new(b.workload(Scale::Small, 3));
            let counts = TraceCounts::of(&wl);
            let cells = b.cells(Scale::Small);
            let cfg = &cells[b.replay_cell(&cells)];
            let run = run_cell(cfg, &wl, Capture::new(true)).unwrap();
            let k = run.profile.counters;
            assert_eq!(run.recorder.pops.len() as u64, k.events);
            assert_eq!(
                replay_queue(cfg, &run.recorder.pops).calls,
                k.events + k.queue_pushes
            );
            assert_eq!(
                replay_devmodel(cfg, &run.recorder.disk_jobs).calls,
                k.station_dispatches
            );
            let demands = demand_stream(&wl, &run.recorder);
            assert_eq!(demands.len() as u64, counts.reads + counts.writes);
            let layers = replay_layers(cfg, &wl, &demands);
            assert!(
                layers.consistent,
                "{}: replay diverged from its recording pass",
                b.name()
            );
            assert_eq!(layers.prefetch.calls, counts.reads);
            for (what, replayed, ran) in replay_vs_run(&layers, &k) {
                assert!(replayed > 0 && ran > 0, "{}: {what}", b.name());
            }
        }
    }
}
