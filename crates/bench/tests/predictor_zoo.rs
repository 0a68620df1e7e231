//! Acceptance tests for the predictor zoo.
//!
//! 1. **Registry equivalence**: building the paper's configurations
//!    through the `PredictorSpec` registry is *bit-identical* to the
//!    pre-registry constructors on every BENCH.json seed scenario —
//!    the predictor extraction must be invisible to the simulator.
//! 2. **The miner earns its keep**: a hand-built paired-jump workload
//!    on which IS_PPM:1's interval contexts are ambiguous (the MRU
//!    edge alternately picks the wrong jump) but MITHRIL's block-keyed
//!    association table is exact — the miner covers reads IS_PPM
//!    misses.
//! 3. The `experiments --predictor` flag rejects bad specs with the
//!    registry listing on stderr and a non-zero exit.

use std::process::Command;
use std::sync::Arc;

use bench::{build_config, build_workload, Scale, WorkloadKind};
use ioworkload::{FileId, FileMeta, NodeId, Op, ProcId, ProcessTrace, Workload};
use lap_core::{run_simulation, CacheSystem, SimConfig, SimReport};
use prefetch::{AggressiveLimit, PredictorSpec, PrefetchConfig};
use simkit::SimDuration;

/// One BENCH.json seed scenario: (name, workload, system, spec,
/// aggressive limit, cache MB, snapshot read ms, reads, disk accesses).
type Scenario = (
    &'static str,
    WorkloadKind,
    CacheSystem,
    &'static str,
    Option<AggressiveLimit>,
    u64,
    f64,
    u64,
    u64,
);

/// The BENCH.json seed scenarios, with the registry spelling of each
/// predictor and the snapshot values (small scale, seed 42) the
/// registry-built configuration must reproduce bit-for-bit.
#[test]
fn registry_built_configs_match_bench_snapshot_bit_for_bit() {
    let scenarios: [Scenario; 4] = [
        (
            "charisma/pafs/ln_agr_is_ppm:1/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            "is_ppm:1",
            Some(AggressiveLimit::One),
            4,
            3.723444186666665,
            825,
            997,
        ),
        (
            "charisma/pafs/np/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            "np",
            None,
            4,
            6.631016819393927,
            825,
            849,
        ),
        (
            "charisma/pafs/oba/4MB",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            "oba",
            None,
            4,
            6.371558498181823,
            825,
            852,
        ),
        (
            "sprite/xfs/ln_agr_is_ppm:1/2MB",
            WorkloadKind::SpriteNow,
            CacheSystem::Xfs,
            "is_ppm:1",
            Some(AggressiveLimit::One),
            2,
            1.5799515698113176,
            1060,
            916,
        ),
    ];
    for (name, kind, system, spec, aggressive, mb, read_ms, reads, disk) in scenarios {
        let parsed = PredictorSpec::parse(spec).expect("seed spec parses");
        let pf = PrefetchConfig::with_predictor(parsed.kind, aggressive);
        let wl = build_workload(kind, Scale::Small, 42);
        let cfg = build_config(kind, Scale::Small, system, pf, mb);
        let r = run_simulation(cfg, wl);
        assert_eq!(
            (r.avg_read_ms.to_bits(), r.reads, r.disk_accesses()),
            (read_ms.to_bits(), reads, disk),
            "{name}: registry-built config diverged from BENCH.json \
             (got {} ms / {} reads / {} disk)",
            r.avg_read_ms,
            r.reads,
            r.disk_accesses()
        );
    }
}

const BLOCK: u64 = 8192;

/// A paired-jump loop: each iteration reads blocks `j, j+1, 48+j,
/// 49+j` for even `j`, then wraps. The interval stream is `+1, +47,
/// +1, -47, ...`, so IS_PPM:1's `(+1, 1)` context alternately leads to
/// `+47` and `-47` — the MRU edge is wrong on every cross-group jump.
/// Block-keyed predictors see nothing ambiguous: each block has one
/// dominant successor set.
fn paired_jump_workload(iterations: usize) -> Workload {
    let mut ops = Vec::new();
    for _ in 0..iterations {
        for j in (0..24u64).step_by(2) {
            for b in [j, j + 1, 48 + j, 49 + j] {
                ops.push(Op::Read {
                    file: FileId(0),
                    offset: b * BLOCK,
                    len: BLOCK,
                });
                // Compute between reads gives prefetches time to land.
                ops.push(Op::Compute(SimDuration::from_millis(2)));
            }
        }
    }
    let wl = Workload {
        name: "paired-jump".into(),
        block_size: BLOCK,
        nodes: 1,
        files: vec![FileMeta {
            id: FileId(0),
            size: 72 * BLOCK,
        }],
        processes: vec![ProcessTrace {
            proc: ProcId(0),
            node: NodeId(0),
            ops,
        }],
    };
    wl.validate();
    wl
}

fn run_paired_jump(spec: &str) -> SimReport {
    let parsed = PredictorSpec::parse(spec).expect("spec parses");
    let pf = PrefetchConfig::with_predictor(parsed.kind, Some(AggressiveLimit::One));
    let mut cfg = SimConfig::pm(CacheSystem::LocalOnly, pf, 1);
    cfg.machine.nodes = 1;
    cfg.machine.disks = 1;
    // 16 cached blocks against a 48-block cyclic working set: every
    // re-read block has been evicted, so prefetching is the only way
    // to cover a read.
    cfg.cache_bytes_per_node = 16 * BLOCK;
    run_simulation(cfg, Arc::new(paired_jump_workload(25)))
}

#[test]
fn mithril_covers_reads_isppm_misses_on_paired_jumps() {
    let isppm = run_paired_jump("is_ppm:1");
    let mithril = run_paired_jump("mithril");

    let covered = |r: &SimReport| {
        r.counter("span.outcome_covered_by_prefetch") + r.counter("span.outcome_late_prefetch")
    };
    // Shown with --nocapture; the EXPERIMENTS.md paired-jump numbers
    // are regenerated from this line.
    eprintln!(
        "paired-jump: mithril {:.3} ms, {}/{} covered (mined {}) | is_ppm:1 {:.3} ms, {}/{} covered",
        mithril.avg_read_ms,
        covered(&mithril),
        mithril.reads,
        mithril.counter("pred.mined"),
        isppm.avg_read_ms,
        covered(&isppm),
        isppm.reads,
    );
    assert!(
        mithril.counter("pred.mined") > 0,
        "the miner never mined an association"
    );
    assert!(
        covered(&mithril) > covered(&isppm),
        "MITHRIL covered {} reads, IS_PPM:1 covered {} — the miner \
         should win on block-keyed paired jumps",
        covered(&mithril),
        covered(&isppm)
    );
    assert!(
        mithril.avg_read_ms < isppm.avg_read_ms,
        "MITHRIL {:.3} ms vs IS_PPM:1 {:.3} ms",
        mithril.avg_read_ms,
        isppm.avg_read_ms
    );
}

#[test]
fn experiments_rejects_bad_predictor_spec_with_registry_listing() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["predictors", "--predictor", "wizardry:9"])
        .output()
        .expect("run experiments");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown predictor spec"), "stderr: {err}");
    for name in ["np", "oba", "is_ppm", "is_ppm_backoff", "markov", "mithril"] {
        assert!(err.contains(name), "registry listing misses {name}: {err}");
    }
    assert!(
        err.contains("mithril:32,3+oba"),
        "listing should show an example spec: {err}"
    );
}

#[test]
fn experiments_accepts_registry_spec_filter() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["predictors", "--scale", "small", "--predictor", "is_ppm:1"])
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("is_ppm:1"), "stdout: {stdout}");
    assert!(
        !stdout.contains("markov"),
        "--predictor should filter the grid: {stdout}"
    );
}
