//! The bit-identity contract of the raw-speed optimizations
//! (DESIGN.md §14, docs/PERFORMANCE.md): the calendar event queue and
//! the dense cache-metadata layout are pure speed changes. On every
//! seed scenario, every combination of queue backend × metadata layout
//! must produce the *same* `SimReport` — field-for-field equal, with
//! `avg_read_ms` identical down to the float bits.

use std::sync::Arc;

use lap::prelude::*;

/// Build the same configuration the `lapsim` CLI would for the seed
/// scenarios, including its shrink-to-workload rule.
fn scenario(
    workload: &str,
    system: CacheSystem,
    prefetch: PrefetchConfig,
    cache_mb: u64,
) -> (SimConfig, Workload) {
    let wl = lap::workzoo::WorkloadSpec::parse_cli(workload, "small")
        .unwrap()
        .build(42)
        .unwrap();
    let mut cfg = SimConfig::pm(system, prefetch, cache_mb);
    if wl.nodes < cfg.machine.nodes {
        cfg.machine.nodes = wl.nodes;
        cfg.machine.disks = cfg.machine.disks.min(wl.nodes.max(2));
    }
    (cfg, wl)
}

fn seed_scenarios() -> Vec<(&'static str, SimConfig, Workload)> {
    vec![
        {
            let (c, w) = scenario(
                "charisma",
                CacheSystem::Pafs,
                PrefetchConfig::ln_agr_is_ppm(1),
                4,
            );
            ("charisma/pafs/ln_agr_is_ppm:1", c, w)
        },
        {
            let (c, w) = scenario("charisma", CacheSystem::Pafs, PrefetchConfig::np(), 4);
            ("charisma/pafs/np", c, w)
        },
        {
            let (c, w) = scenario("charisma", CacheSystem::Pafs, PrefetchConfig::oba(), 4);
            ("charisma/pafs/oba", c, w)
        },
        {
            let (c, w) = scenario(
                "sprite",
                CacheSystem::Xfs,
                PrefetchConfig::ln_agr_is_ppm(1),
                2,
            );
            ("sprite/xfs/ln_agr_is_ppm:1", c, w)
        },
    ]
}

/// All four backend × layout combinations agree exactly on every seed
/// scenario. The Heap/Classic cell is the reference implementation;
/// Calendar/Dense is what production configs run.
#[test]
fn queue_backend_and_meta_layout_are_bit_identical() {
    for (name, cfg, wl) in seed_scenarios() {
        let wl = Arc::new(wl);
        let mut reference: Option<SimReport> = None;
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            for layout in [MetaLayout::Classic, MetaLayout::Dense] {
                let mut c = cfg.clone();
                c.event_queue = backend;
                c.meta_layout = layout;
                let report = Simulation::new_shared(c, Arc::clone(&wl)).run();
                match &reference {
                    None => reference = Some(report),
                    Some(base) => {
                        assert_eq!(
                            report.avg_read_ms.to_bits(),
                            base.avg_read_ms.to_bits(),
                            "{name}: avg_read_ms drifted under {}/{}",
                            backend.name(),
                            layout.name(),
                        );
                        assert_eq!(
                            &report,
                            base,
                            "{name}: SimReport drifted under {}/{}",
                            backend.name(),
                            layout.name(),
                        );
                    }
                }
            }
        }
    }
}

/// The sprite/xfs scenario exercises the holder table hard (remote
/// hits, invalidations, N-chance forwarding); run it with a LocalOnly
/// sanity cell too so all three cache systems see both layouts.
#[test]
fn local_only_system_ignores_layout_but_accepts_it() {
    let (cfg, wl) = scenario(
        "sprite",
        CacheSystem::LocalOnly,
        PrefetchConfig::ln_agr_is_ppm(1),
        2,
    );
    let wl = Arc::new(wl);
    let mut classic = cfg.clone();
    classic.meta_layout = MetaLayout::Classic;
    let mut dense = cfg;
    dense.meta_layout = MetaLayout::Dense;
    let a = Simulation::new_shared(classic, Arc::clone(&wl)).run();
    let b = Simulation::new_shared(dense, wl).run();
    assert_eq!(a, b);
    assert_eq!(a.avg_read_ms.to_bits(), b.avg_read_ms.to_bits());
}
