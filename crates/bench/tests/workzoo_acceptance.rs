//! Acceptance gates for the workload zoo.
//!
//! Three contracts:
//!
//! 1. **Bit-identity** — routing the seed workloads through the
//!    `WorkloadSpec` registry must reproduce the direct-generation
//!    results exactly (`f64::to_bits`), for all four BENCH.json seed
//!    scenarios. The registry is plumbing, not a new model.
//! 2. **The zoo bites** — on a cache-overflow zoo workload a
//!    history-replay predictor (the MITHRIL miner) must cover real
//!    reads *and* beat the no-prefetch baseline. On the stock
//!    CHARISMA/Sprite pair this is impossible (nothing hot ever
//!    leaves the cache), which is why the zoo exists.
//! 3. **The verdict is data, not narrative** — the Ln_Agr-vs-Agr
//!    ordering on the zoo is pinned: it *flips* on the overflow
//!    web/mltrain workloads and is *preserved* on db.

use bench::{build_config, build_workload, Scale, WorkloadKind};
use lap_core::{run_simulation, CacheSystem, SimConfig, SimReport};
use prefetch::{AggressiveLimit, PredictorSpec, PrefetchConfig};
use workzoo::WorkloadSpec;

/// Run a zoo spec at 1 MB per node on PAFS/NOW (the zoo ablation's
/// machine), fitted to the workload.
fn run_zoo(spec: &str, pf: PrefetchConfig, seed: u64) -> SimReport {
    let wl = WorkloadSpec::parse(spec)
        .expect("zoo spec parses")
        .build(seed)
        .expect("zoo spec builds");
    let mut cfg = SimConfig::now(CacheSystem::Pafs, pf, 1);
    cfg.fit_to_workload(&wl);
    run_simulation(cfg, wl)
}

/// Contract 1: the four BENCH.json seed scenarios, built through the
/// registry, are bit-identical to direct generation — workload text,
/// read time (`to_bits`), read count, and disk accesses.
#[test]
fn registry_path_is_bit_identical_on_the_bench_scenarios() {
    let scenarios: [(&str, WorkloadKind, CacheSystem, PrefetchConfig, u64); 4] = [
        (
            "charisma",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        ),
        (
            "charisma",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::np(),
            4,
        ),
        (
            "charisma",
            WorkloadKind::CharismaPm,
            CacheSystem::Pafs,
            PrefetchConfig::oba(),
            4,
        ),
        (
            "sprite",
            WorkloadKind::SpriteNow,
            CacheSystem::Xfs,
            PrefetchConfig::ln_agr_is_ppm(1),
            2,
        ),
    ];
    for (spec, kind, system, pf, mb) in scenarios {
        let direct = build_workload(kind, Scale::Small, 42);
        let via_registry = WorkloadSpec::parse_cli(spec, "small")
            .expect("builtin spec parses")
            .build(42)
            .expect("builtin spec builds");
        assert_eq!(
            direct.to_text(),
            via_registry.to_text(),
            "{spec}: registry-built workload differs from direct generation"
        );
        let cfg = build_config(kind, Scale::Small, system, pf, mb);
        let a = run_simulation(cfg.clone(), direct);
        let b = run_simulation(cfg, via_registry);
        assert_eq!(
            a.avg_read_ms.to_bits(),
            b.avg_read_ms.to_bits(),
            "{spec}/{}: read time not bit-identical via the registry",
            pf.paper_name()
        );
        assert_eq!((a.reads, a.disk_accesses()), (b.reads, b.disk_accesses()));
    }
}

/// Contract 2: on the mltrain overflow workload (16 MB dataset over a
/// 4 MB aggregate cache, epoch-replayed shuffled order) the MITHRIL
/// miner under the aggressive driver covers reads and beats NP.
#[test]
fn mithril_covers_and_beats_np_on_the_overflow_zoo() {
    const SPEC: &str = "mltrain:4,2048";
    let np = run_zoo(SPEC, PrefetchConfig::np(), 42);
    let mith = PredictorSpec::parse("mithril").expect("mithril spec");
    let agr = run_zoo(
        SPEC,
        PrefetchConfig::with_predictor(mith.kind, Some(AggressiveLimit::Unlimited)),
        42,
    );
    assert!(
        agr.counter("pred.mined") > 0,
        "MITHRIL mined nothing on {SPEC}"
    );
    let covered = agr.counter("span.outcome_covered_by_prefetch");
    assert!(
        covered > 0,
        "MITHRIL covered zero reads on {SPEC} — the zoo is degenerate again"
    );
    assert!(
        agr.avg_read_ms < np.avg_read_ms,
        "MITHRIL ({:.3} ms) did not beat NP ({:.3} ms) on {SPEC}",
        agr.avg_read_ms,
        np.avg_read_ms
    );
}

/// Contract 3: the linear-limit verdict, asserted per workload. All
/// simulations are deterministic, so these are exact orderings, not
/// statistical claims:
///
/// * `web` and `mltrain` **flip** the paper's ordering — once the
///   working set overflows the aggregate cache and file-to-file jumps
///   (web) or shuffled replays (mltrain) carry the traffic, unlimited
///   aggressiveness beats the one-block-per-file limit;
/// * `db` **preserves** it — long scans over a table far larger than
///   the cache are exactly the regime the paper's limit was built
///   for, and the unlimited walk's wasted blocks cost real disk time.
#[test]
fn linear_limit_verdict_is_pinned_per_zoo_workload() {
    let pair = |spec: &str| {
        let ln = run_zoo(spec, PrefetchConfig::ln_agr_is_ppm(1), 42);
        let agr = run_zoo(
            spec,
            PrefetchConfig {
                aggressive: Some(AggressiveLimit::Unlimited),
                ..PrefetchConfig::ln_agr_is_ppm(1)
            },
            42,
        );
        (ln.avg_read_ms, agr.avg_read_ms)
    };

    let (ln, agr) = pair("web:64,0.8,256");
    assert!(
        agr < ln,
        "web: expected a flip, got Ln {ln:.3} vs Agr {agr:.3}"
    );

    let (ln, agr) = pair("mltrain:4,2048");
    assert!(
        agr < ln,
        "mltrain: expected a flip, got Ln {ln:.3} vs Agr {agr:.3}"
    );

    let (ln, agr) = pair("db:0.3,4096");
    assert!(
        ln < agr,
        "db: expected paper ordering, got Ln {ln:.3} vs Agr {agr:.3}"
    );
}

/// Satellite 1: a bad `--workload` must exit non-zero and print the
/// full registry menu on stderr.
#[test]
fn experiments_rejects_unknown_workload_with_the_menu() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["zoo", "--workload", "netflix:9000"])
        .output()
        .expect("run experiments");
    assert!(!out.status.success(), "bad --workload must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in [
        "charisma", "sprite", "web", "db", "mltrain", "strace", "blktrace",
    ] {
        assert!(
            stderr.contains(name),
            "registry menu missing {name:?} in:\n{stderr}"
        );
    }
    assert!(
        stderr.contains("netflix:9000"),
        "menu should echo the bad spec"
    );
}
