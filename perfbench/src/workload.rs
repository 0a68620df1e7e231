//! The benchmark's workloads, the code that runs one simulation cell,
//! and the correctness gate every simulation passes through.
//!
//! Each workload's trace is generated from the seed and rendered to
//! trace text; the simulator only ever sees that text, ingested through
//! [`Workload::from_text`].
//!
//! The seed varies the timing of a fixed trace shape, not the shape.
//! The shape (applications, files, access patterns, request sizes) is
//! the paper-scale generator's at [`REFERENCE_SEED`]; the benchmark's
//! seed then scales every compute gap by its own factor in
//! `[1 - JITTER, 1 + JITTER]`, which changes the interleaving of I/O,
//! and so every cache, prefetch and disk decision, but not the amount
//! of work. Across generator seeds the CHARISMA trace's volume varies
//! several-fold (16 applications, each with random size, pattern and
//! record length), which no timing bound could absorb. The traced run
//! therefore also gates every cell, untimed, on the trace the generator
//! makes from the seed itself ([`Bench::unseen_trace_text`]): held-out
//! data whose shape the timed trace does not share.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::{Scale, WorkloadKind};
use ioworkload::util::Rng64;
use ioworkload::{Op, Workload};
use lap_core::{CacheSystem, SimConfig, SimProfile, SimReport, Simulation};
use lapobs::Recorder;
use prefetch::PrefetchConfig;
use simkit::SimDuration;

use crate::measure::{thread_cpu, Fnv};

/// Generator seed of the trace shape every benchmark seed shares (the
/// seed of the repository's reference runs).
pub const REFERENCE_SEED: u64 = 42;
/// Relative jitter the benchmark seed applies to each compute gap.
pub const JITTER: f64 = 0.1;

/// A named benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bench {
    /// CHARISMA on the 128-node PM, PAFS, `Ln_Agr_IS_PPM:1`, 16 MB:
    /// cache metadata, predictor and aggressive walk carry the load,
    /// the disks do little.
    CharismaPafs,
    /// The same trace and algorithm on xFS at 4 MB (the aggressive
    /// flood of Figures 5/9): event queue, disk stations and the xFS
    /// per-node pools carry the load.
    CharismaXfsFlood,
    /// The Figure 6 + 7 grid on the 50-node NOW: 7 algorithms x 5
    /// cache sizes x {PAFS, xFS}, 25% writes, run on two workers.
    SpriteSweep,
}

impl Bench {
    pub const ALL: [Bench; 3] = [
        Bench::CharismaPafs,
        Bench::CharismaXfsFlood,
        Bench::SpriteSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Bench::CharismaPafs => "charisma-pafs",
            Bench::CharismaXfsFlood => "charisma-xfs-flood",
            Bench::SpriteSweep => "sprite-sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    fn kind(self) -> WorkloadKind {
        match self {
            Bench::CharismaPafs | Bench::CharismaXfsFlood => WorkloadKind::CharismaPm,
            Bench::SpriteSweep => WorkloadKind::SpriteNow,
        }
    }

    /// Sweep workers: the grid runs on two, single cells on one.
    pub fn workers(self) -> usize {
        match self {
            Bench::SpriteSweep => 2,
            _ => 1,
        }
    }

    /// The workload generated from `seed`: the reference shape with
    /// every compute gap jittered by the seed's random stream.
    pub fn workload(self, scale: Scale, seed: u64) -> Workload {
        let mut wl = bench::build_workload(self.kind(), scale, REFERENCE_SEED);
        let mut rng = Rng64::new(seed);
        for op in wl.processes.iter_mut().flat_map(|p| p.ops.iter_mut()) {
            if let Op::Compute(d) = op {
                let f = rng.range_f64(1.0 - JITTER, 1.0 + JITTER);
                *d = SimDuration::from_nanos((d.as_nanos() as f64 * f) as u64);
            }
        }
        wl
    }

    /// The workload's trace text: the simulator's only input.
    pub fn trace_text(self, scale: Scale, seed: u64) -> String {
        self.workload(scale, seed).to_text()
    }

    /// The trace text the generator makes from `seed` itself: its own
    /// shape, not the reference one. Gated for correctness, never timed.
    pub fn unseen_trace_text(self, scale: Scale, seed: u64) -> String {
        bench::build_workload(self.kind(), scale, seed).to_text()
    }

    /// The simulation cells, in roster order (system, algorithm, cache
    /// size), configured exactly as the paper's figure grids are.
    pub fn cells(self, scale: Scale) -> Vec<SimConfig> {
        let cell = |system, pf, mb| bench::build_config(self.kind(), scale, system, pf, mb);
        match self {
            Bench::CharismaPafs => {
                vec![cell(
                    CacheSystem::Pafs,
                    PrefetchConfig::ln_agr_is_ppm(1),
                    16,
                )]
            }
            Bench::CharismaXfsFlood => {
                vec![cell(CacheSystem::Xfs, PrefetchConfig::ln_agr_is_ppm(1), 4)]
            }
            Bench::SpriteSweep => [CacheSystem::Pafs, CacheSystem::Xfs]
                .into_iter()
                .flat_map(|system| {
                    bench::algorithms(false).into_iter().flat_map(move |pf| {
                        bench::CACHE_MBS
                            .into_iter()
                            .map(move |mb| cell(system, pf, mb))
                    })
                })
                .collect(),
        }
    }

    /// Index of the cell whose event stream drives the per-layer
    /// replays: the only cell, or for the sweep the PAFS
    /// `Ln_Agr_IS_PPM:1` cell at 16 MB.
    pub fn replay_cell(self, cells: &[SimConfig]) -> usize {
        cells
            .iter()
            .position(|c| {
                c.system == CacheSystem::Pafs
                    && c.prefetch == PrefetchConfig::ln_agr_is_ppm(1)
                    && c.cache_bytes_per_node == 16 << 20
            })
            .unwrap_or(0)
    }
}

/// Reads, writes and records of an ingested trace: the totals the
/// correctness gate holds every simulation to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCounts {
    pub reads: u64,
    pub writes: u64,
    pub records: u64,
}

impl TraceCounts {
    pub fn of(wl: &Workload) -> Self {
        let mut c = TraceCounts {
            reads: 0,
            writes: 0,
            records: 0,
        };
        for op in wl.processes.iter().flat_map(|p| &p.ops) {
            c.records += 1;
            match op {
                Op::Read { .. } => c.reads += 1,
                Op::Write { .. } => c.writes += 1,
                Op::Compute(_) => {}
            }
        }
        c
    }
}

/// Ingest trace text (the timed "parse" step of set-up).
pub fn ingest(text: &str) -> Arc<Workload> {
    Arc::new(Workload::from_text(text).expect("generated trace text parses"))
}

/// Digest of a full report: its `Debug` rendering, which prints every
/// field and every float exactly, plus the mean read time's bits.
pub fn digest(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.write(format!("{report:?}").as_bytes());
    h.write(&report.avg_read_ms.to_bits().to_le_bytes());
    h.finish()
}

/// The correctness gate: every trace read and write completed exactly
/// once (measured or inside the warm-up window). Returns the report's
/// digest.
pub fn check(report: &SimReport, trace: &TraceCounts) -> Result<u64, String> {
    let reads = report.reads + report.warmup_reads;
    let writes = report.writes + report.warmup_writes;
    if reads != trace.reads {
        return Err(format!(
            "{}: {reads} reads completed, trace has {}",
            report.label, trace.reads
        ));
    }
    if writes != trace.writes {
        return Err(format!(
            "{}: {writes} writes completed, trace has {}",
            report.label, trace.writes
        ));
    }
    Ok(digest(report))
}

/// One simulation cell, constructed and run to completion.
pub struct CellRun<R> {
    pub report: SimReport,
    pub profile: SimProfile,
    pub recorder: R,
    /// Host time of `Simulation` construction.
    pub construct: Duration,
    /// Host time of `run_profiled`: event loop plus report.
    pub run: Duration,
    /// CPU time of this thread over `run_profiled`.
    pub run_cpu: Duration,
    /// CPU time of this thread over construction plus run.
    pub cell_cpu: Duration,
    pub start: Instant,
    pub end: Instant,
}

/// Construct and run one cell, turning a panic into an error.
pub fn run_cell<R: Recorder>(
    cfg: &SimConfig,
    wl: &Arc<Workload>,
    recorder: R,
) -> Result<CellRun<R>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let cpu0 = thread_cpu();
        let start = Instant::now();
        let sim = Simulation::with_recorder(cfg.clone(), Arc::clone(wl), recorder);
        let construct = start.elapsed();
        let cpu1 = thread_cpu();
        let t_run = Instant::now();
        let (report, recorder, profile) = sim.run_profiled();
        let end = Instant::now();
        let cpu2 = thread_cpu();
        CellRun {
            report,
            profile,
            recorder,
            construct,
            run: end - t_run,
            run_cpu: cpu2.saturating_sub(cpu1),
            cell_cpu: cpu2.saturating_sub(cpu0),
            start,
            end,
        }
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| e.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("{}: panicked: {msg}", cfg.label())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lapobs::NoopRecorder;

    #[test]
    fn names_round_trip_and_rosters_have_the_paper_shape() {
        for b in Bench::ALL {
            assert_eq!(Bench::parse(b.name()), Some(b));
        }
        assert_eq!(Bench::parse("nope"), None);
        assert_eq!(Bench::CharismaPafs.cells(Scale::Paper).len(), 1);
        let grid = Bench::SpriteSweep.cells(Scale::Paper);
        assert_eq!(grid.len(), 70);
        let r = Bench::SpriteSweep.replay_cell(&grid);
        assert_eq!(grid[r].label(), "PAFS/Ln_Agr_IS_PPM:1 @ 16MB");
    }

    #[test]
    fn ingested_trace_gives_the_in_memory_workloads_digest() {
        for b in [Bench::CharismaPafs, Bench::SpriteSweep] {
            let generated = Arc::new(b.workload(Scale::Small, 5));
            let ingested = ingest(&b.trace_text(Scale::Small, 5));
            let counts = TraceCounts::of(&ingested);
            assert_eq!(counts, TraceCounts::of(&generated));
            let cfg = &b.cells(Scale::Small)[0];
            let a = run_cell(cfg, &generated, NoopRecorder).unwrap();
            let z = run_cell(cfg, &ingested, NoopRecorder).unwrap();
            assert_eq!(
                check(&a.report, &counts).unwrap(),
                check(&z.report, &counts).unwrap()
            );
        }
    }

    #[test]
    fn gate_rejects_lost_reads() {
        let wl = ingest(&Bench::CharismaPafs.trace_text(Scale::Small, 1));
        let mut counts = TraceCounts::of(&wl);
        let cell = run_cell(
            &Bench::CharismaPafs.cells(Scale::Small)[0],
            &wl,
            NoopRecorder,
        )
        .unwrap();
        assert!(check(&cell.report, &counts).is_ok());
        counts.reads += 1;
        assert!(check(&cell.report, &counts)
            .unwrap_err()
            .contains("reads completed"));
    }
}
