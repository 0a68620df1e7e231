//! Device-model guarantees at the whole-simulator level: the
//! calibrated geometry preset reproduces the fixed-cost model's seed
//! results under FIFO, the schedulers are load-bearing (they change
//! results), and the A/B determinism contract extends to runs with
//! devmodel events enabled.

use std::sync::Arc;

use lap::prelude::*;

mod common;
use common::{scenario, seed_scenarios};

/// The calibration contract: switching the seed scenarios from the
/// fixed Table-1 service times to the geometry model under FIFO moves
/// read time and hit rate by less than 2%. This is what keeps every
/// previously-published number comparable when the geometry model is
/// on.
#[test]
fn geometry_fifo_matches_fixed_model_within_two_percent() {
    for (name, cfg, wl) in seed_scenarios() {
        let fixed = run_simulation(cfg.clone(), wl.clone());
        let mut gcfg = cfg;
        gcfg.machine = gcfg.machine.with_geometry();
        let geom = run_simulation(gcfg, wl);

        let read_dev = (geom.avg_read_ms - fixed.avg_read_ms).abs() / fixed.avg_read_ms;
        assert!(
            read_dev < 0.02,
            "{name}: geometry read time {:.3} ms deviates {:.1}% from fixed {:.3} ms",
            geom.avg_read_ms,
            read_dev * 100.0,
            fixed.avg_read_ms
        );
        let (hf, hg) = (fixed.cache.hit_ratio(), geom.cache.hit_ratio());
        let hit_dev = (hg - hf).abs() / hf;
        assert!(
            hit_dev < 0.02,
            "{name}: geometry hit rate {:.1}% deviates {:.1}% from fixed {:.1}%",
            hg * 100.0,
            hit_dev * 100.0,
            hf * 100.0
        );
    }
}

/// The schedulers must be load-bearing, not cosmetic: on a
/// prefetch-heavy seed scenario the geometry model must produce
/// *different* (deterministic) results under SSTF and C-LOOK than
/// under FIFO, and reordering must actually help the aggressive
/// prefetcher (shorter seeks between queued requests).
#[test]
fn schedulers_measurably_change_prefetch_results() {
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let mut base = cfg;
    base.machine = base.machine.with_geometry();

    let run = |sched: DiskSched| {
        let mut c = base.clone();
        c.machine.disk_sched = sched;
        run_simulation(c, wl.clone())
    };
    let fifo = run(DiskSched::Fifo);
    let sstf = run(DiskSched::Sstf);
    let clook = run(DiskSched::Clook);

    assert_ne!(
        fifo.avg_read_ms, sstf.avg_read_ms,
        "SSTF did not change read time — scheduler is cosmetic"
    );
    assert_ne!(
        fifo.avg_read_ms, clook.avg_read_ms,
        "C-LOOK did not change read time — scheduler is cosmetic"
    );
    // Seek-aware reordering should not make this workload slower.
    assert!(
        sstf.avg_read_ms < fifo.avg_read_ms,
        "SSTF ({:.3} ms) did not beat FIFO ({:.3} ms)",
        sstf.avg_read_ms,
        fifo.avg_read_ms
    );
    // Determinism: the same scheduled run twice is the same report.
    assert_eq!(sstf, run(DiskSched::Sstf));
}

/// A/B determinism with devmodel events enabled: a traced run with the
/// geometry model and a reordering scheduler must equal the no-op run
/// in every metric, and must actually have emitted the new event
/// kinds.
#[test]
fn geometry_traced_run_equals_noop_run() {
    use lap::lapobs::Event;

    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let mut gcfg = cfg;
    gcfg.machine = gcfg.machine.with_geometry();
    gcfg.machine.disk_sched = DiskSched::Sstf;
    let wl = Arc::new(wl);

    let baseline = run_simulation(gcfg.clone(), Arc::clone(&wl));
    let run = Simulation::try_new(gcfg, wl, TraceRecorder::new())
        .unwrap()
        .run();
    let (traced, rec) = (run.report, run.rec);

    assert_eq!(baseline, traced, "tracing perturbed the geometry model");
    assert!(
        rec.events()
            .any(|(_, e)| matches!(e, Event::DiskService { .. })),
        "no DiskService mechanical-detail events recorded"
    );
    assert!(
        rec.events()
            .any(|(_, e)| matches!(e, Event::QueueReorder { .. })),
        "SSTF never reordered — no QueueReorder events recorded"
    );
}

/// The per-disk mechanical counters surface in the unified registry
/// when (and only when) the geometry model is active.
#[test]
fn mechanical_metrics_surface_in_registry() {
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let fixed = run_simulation(cfg.clone(), wl.clone());
    let mut gcfg = cfg;
    gcfg.machine = gcfg.machine.with_geometry();
    let geom = run_simulation(gcfg, wl);

    let has = |r: &SimReport, needle: &str| {
        r.obs
            .to_csv()
            .lines()
            .any(|l| l.starts_with(&format!("{needle},")))
    };
    for needle in ["disk0.seek_s", "disk0.rot_wait_s", "disk0.seek_cylinders"] {
        assert!(
            has(&geom, needle),
            "geometry run missing {needle} in registry"
        );
        assert!(
            !has(&fixed, needle),
            "fixed run unexpectedly exports {needle}"
        );
    }
}
