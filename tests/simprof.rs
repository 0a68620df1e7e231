//! Self-profiling guarantees: turning the profiler on must never
//! change a simulation result, and what it measures must be
//! deterministic.
//!
//! These are the acceptance gates of the simprof layer:
//! * profiled and unprofiled runs produce byte-identical reports
//!   (`SimReport` equality plus `f64::to_bits` on the headline metric)
//!   on all four BENCH.json seed scenarios, and
//! * two same-seed profiled runs produce identical cost counters —
//!   the property that lets CI compare them exactly.

use lap::prelude::*;

/// The four BENCH.json seed scenarios, built exactly as
/// `experiments --bench-out` builds them at small scale, seed 42
/// (`bench::build_workload` / `bench::build_config`).
fn seed_scenarios() -> Vec<(&'static str, SimConfig, Workload)> {
    let charisma = |system, pf, cache_mb| {
        let wl = CharismaParams::small().generate(42);
        let mut cfg = SimConfig::pm(system, pf, cache_mb);
        cfg.machine.nodes = CharismaParams::small().nodes;
        cfg.machine.disks = 4;
        (cfg, wl)
    };
    let sprite = |system, pf, cache_mb| {
        let wl = SpriteParams::small().generate(42);
        let mut cfg = SimConfig::now(system, pf, cache_mb);
        cfg.machine.nodes = SpriteParams::small().nodes;
        cfg.machine.disks = 4;
        (cfg, wl)
    };
    vec![
        {
            let (c, w) = charisma(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 4);
            ("charisma/pafs/ln_agr_is_ppm:1/4MB", c, w)
        },
        {
            let (c, w) = charisma(CacheSystem::Pafs, PrefetchConfig::np(), 4);
            ("charisma/pafs/np/4MB", c, w)
        },
        {
            let (c, w) = charisma(CacheSystem::Pafs, PrefetchConfig::oba(), 4);
            ("charisma/pafs/oba/4MB", c, w)
        },
        {
            let (c, w) = sprite(CacheSystem::Xfs, PrefetchConfig::ln_agr_is_ppm(1), 2);
            ("sprite/xfs/ln_agr_is_ppm:1/2MB", c, w)
        },
    ]
}

/// Profiling never shows in the report, on every seed scenario: the
/// profiler only reads counters the run maintains anyway, so the
/// report of `run_simulation`, which drops the profile, and the one
/// next to it in the `Outcome` agree in every metric and histogram.
#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for (name, cfg, wl) in seed_scenarios() {
        let plain = run_simulation(cfg.clone(), wl.clone());
        let run = outcome(cfg, wl, NoopRecorder);
        let (profiled, profile) = (run.report, run.profile);
        assert_eq!(
            plain.avg_read_ms.to_bits(),
            profiled.avg_read_ms.to_bits(),
            "{name}: avg_read_ms drifted under profiling"
        );
        assert_eq!(plain, profiled, "{name}: report drifted under profiling");
        assert_eq!(
            plain.obs.to_csv(),
            profiled.obs.to_csv(),
            "{name}: metrics CSV drifted under profiling"
        );
        // And the profile itself did real work.
        let c = &profile.counters;
        assert!(c.events > 0, "{name}: no events counted");
        assert_eq!(
            c.queue_pushes, c.events,
            "{name}: a drained queue pops exactly what was pushed"
        );
        assert!(c.peak_queue_depth > 0 && c.station_dispatches > 0);
        assert!(c.cache_probes > 0, "{name}: no cache probes counted");
    }
}

/// Two same-seed profiled runs must produce identical counters — the
/// determinism that lets BENCH.json hard-gate them.
#[test]
fn profile_counters_are_identical_across_same_seed_runs() {
    for (name, cfg, wl) in seed_scenarios() {
        let (one, two) = (
            outcome(cfg.clone(), wl.clone(), NoopRecorder),
            outcome(cfg, wl, NoopRecorder),
        );
        let (p1, p2) = (one.profile, two.profile);
        assert_eq!(one.report, two.report, "{name}: reports differ");
        assert_eq!(
            p1.counters, p2.counters,
            "{name}: profile counters differ across same-seed runs"
        );
        assert_eq!(p1.reads, p2.reads, "{name}: read counts differ");
        // Derived ratios are computed from the counters, so they are
        // bit-stable too.
        assert_eq!(
            p1.counters.events_per_read(p1.reads).to_bits(),
            p2.counters.events_per_read(p2.reads).to_bits()
        );
        assert_eq!(
            p1.counters.mean_queue_depth().to_bits(),
            p2.counters.mean_queue_depth().to_bits()
        );
    }
}

/// The profiler composes with tracing: a recording run gives the
/// same report and the same counters as an untraced one.
#[test]
fn profiling_composes_with_tracing() {
    let (name, cfg, wl) = seed_scenarios().remove(0);
    let plain = outcome(cfg.clone(), wl.clone(), NoopRecorder);
    let traced = outcome(cfg, wl, TraceRecorder::new());
    assert_eq!(plain.report, traced.report, "{name}: report drifted");
    assert_eq!(plain.profile.counters, traced.profile.counters, "{name}");
    assert!(!traced.rec.is_empty() && traced.profile.counters.events > 0);
}

/// Build and run one scenario, keeping the whole `Outcome`.
fn outcome<R: Recorder>(cfg: SimConfig, wl: Workload, rec: R) -> Outcome<R> {
    Simulation::try_new(cfg, wl, rec).unwrap().run()
}
