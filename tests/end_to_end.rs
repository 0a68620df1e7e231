//! Workspace-level integration tests: scenarios that span every crate
//! through the `lap` facade.

use lap::prelude::*;
use lap::simkit::SimDuration;

mod common;
use common::small_pm;

#[test]
fn trace_text_round_trip_preserves_simulation_results() {
    // A workload serialized to the text format and re-parsed must
    // simulate to bit-identical results.
    let wl = CharismaParams::small().generate(5);
    let reparsed = Workload::from_text(&wl.to_text()).expect("parse");
    let a = run_simulation(small_pm(PrefetchConfig::ln_agr_is_ppm(1), 2), wl);
    let b = run_simulation(small_pm(PrefetchConfig::ln_agr_is_ppm(1), 2), reparsed);
    assert_eq!(a.avg_read_ms, b.avg_read_ms);
    assert_eq!(a.disk_accesses(), b.disk_accesses());
    assert_eq!(a.cache, b.cache);
}

#[test]
fn figure1_pattern_through_the_full_stack() {
    // Drive the paper's Figure 1 pattern through a real simulation: a
    // single process reading (2 blocks, +3 -> 3 blocks, +5 -> ...) and
    // an Ln_Agr_IS_PPM:1 prefetcher. After warm-up, reads must be
    // near-hit-speed.
    let block = 8192u64;
    let blocks = 512u64;
    let mut ops = Vec::new();
    let mut off = 0u64;
    loop {
        // 2-block request, +3, 3-block request, +5 ...
        if off + 2 > blocks {
            break;
        }
        ops.push(Op::Compute(SimDuration::from_millis(200)));
        ops.push(Op::Read {
            file: FileId(0),
            offset: off * block,
            len: 2 * block,
        });
        if off + 3 + 3 > blocks {
            break;
        }
        ops.push(Op::Compute(SimDuration::from_millis(200)));
        ops.push(Op::Read {
            file: FileId(0),
            offset: (off + 3) * block,
            len: 3 * block,
        });
        off += 8;
    }
    let wl = Workload {
        name: "figure1".into(),
        block_size: block,
        nodes: 1,
        files: vec![lap::ioworkload::FileMeta {
            id: FileId(0),
            size: blocks * block,
        }],
        processes: vec![lap::ioworkload::ProcessTrace {
            proc: ProcId(0),
            node: NodeId(0),
            ops,
        }],
    };
    wl.validate();

    let mut cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 4);
    cfg.machine.nodes = 1;
    cfg.machine.disks = 2;
    let with_pf = run_simulation(cfg.clone(), wl.clone());

    let mut np = cfg;
    np.prefetch = PrefetchConfig::np();
    let without = run_simulation(np, wl);

    // NP pays a disk read per request (~11 ms); the prefetched run
    // must be several times faster on average.
    assert!(
        with_pf.avg_read_ms * 3.0 < without.avg_read_ms,
        "prefetch {:.3} ms vs NP {:.3} ms",
        with_pf.avg_read_ms,
        without.avg_read_ms
    );
    // And the strided pattern is learned, not OBA-guessed: the pattern
    // skips blocks, so sequential guessing alone cannot reach 90%+ hits.
    assert!(with_pf.cache.hit_ratio() > 0.9);
}

#[test]
fn seven_configurations_keep_their_paper_grouping_on_charisma() {
    // Figure 4's grouping at small scale: NP and OBA are the slowest
    // group; every aggressive algorithm beats every non-aggressive one
    // of the same predictor.
    let wl = CharismaParams::small().generate(42);
    let run = |pf| run_simulation(small_pm(pf, 2), wl.clone()).avg_read_ms;

    let np = run(PrefetchConfig::np());
    let oba = run(PrefetchConfig::oba());
    let isppm1 = run(PrefetchConfig::is_ppm(1));
    let ln_oba = run(PrefetchConfig::ln_agr_oba());
    let ln_isppm1 = run(PrefetchConfig::ln_agr_is_ppm(1));

    // OBA helps only a little.
    assert!(oba <= np * 1.02, "OBA {oba} vs NP {np}");
    // The intelligent predictor beats plain OBA clearly.
    assert!(isppm1 < oba, "IS_PPM:1 {isppm1} vs OBA {oba}");
    // Aggressive beats non-aggressive for both predictors.
    assert!(ln_oba < oba, "Ln_Agr_OBA {ln_oba} vs OBA {oba}");
    assert!(
        ln_isppm1 < isppm1,
        "Ln_Agr_IS_PPM:1 {ln_isppm1} vs IS_PPM:1 {isppm1}"
    );
    // And the aggressive group is far ahead of NP.
    assert!(
        ln_isppm1 * 1.5 < np,
        "Ln_Agr_IS_PPM:1 {ln_isppm1} vs NP {np}"
    );
}

#[test]
fn xfs_and_pafs_converge_when_nothing_is_shared() {
    // Figure 7 logic: with no inter-node sharing, per-node linearity
    // behaves like global linearity — prefetch volumes are close.
    let wl = SpriteParams::small().generate(11);
    let mut pafs_cfg = SimConfig::now(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 2);
    pafs_cfg.machine.nodes = 6;
    pafs_cfg.machine.disks = 3;
    let mut xfs_cfg = pafs_cfg.clone();
    xfs_cfg.system = CacheSystem::Xfs;

    let pafs = run_simulation(pafs_cfg, wl.clone());
    let xfs = run_simulation(xfs_cfg, wl);
    let ratio = xfs.prefetch.issued as f64 / pafs.prefetch.issued.max(1) as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "prefetch volume ratio {ratio:.2} (xfs {} vs pafs {})",
        xfs.prefetch.issued,
        pafs.prefetch.issued
    );
}

#[test]
fn prelude_exposes_the_whole_stack() {
    // Compile-time check that the prelude covers the API surface the
    // examples use.
    let _algos: [PrefetchConfig; 7] = PrefetchConfig::paper_suite();
    let _limit = AggressiveLimit::One;
    let _kind = AlgorithmKind::Oba;
    let _m = MachineConfig::pm();
    let _r = Request::new(0, 1);
    let mut oba = Oba::new();
    oba.observe(Request::new(0, 1));
    let mut ppm = IsPpm::new(1);
    ppm.observe(Request::new(0, 1));
    let _pf = FilePrefetcher::new(PrefetchConfig::oba(), 10);
    let _c1 = PafsCache::new(2, 2);
    let _c2 = XfsCache::new(2, 2);
    let _t = SimTime::ZERO;
    let _d = SimDuration::from_millis(1);
}
