//! Scenario builders shared by the whole-simulator tests. Each test
//! file uses a subset of them.
#![allow(dead_code)]

use lap::prelude::*;

/// Build what `lapsim --workload SPEC --scale small` builds: the zoo
/// workload at seed 42 on the PM machine, shrunk to the workload.
pub fn scenario(
    workload: &str,
    system: CacheSystem,
    prefetch: PrefetchConfig,
    cache_mb: u64,
) -> (SimConfig, Workload) {
    let wl = WorkloadSpec::parse_cli(workload, "small")
        .unwrap()
        .build(42)
        .unwrap();
    let mut cfg = SimConfig::pm(system, prefetch, cache_mb);
    cfg.fit_to_workload(&wl);
    (cfg, wl)
}

/// The four seed scenarios, built as `lapsim` builds them.
pub fn seed_scenarios() -> Vec<(&'static str, SimConfig, Workload)> {
    use CacheSystem::{Pafs, Xfs};
    let (agr, np, oba) = (
        PrefetchConfig::ln_agr_is_ppm(1),
        PrefetchConfig::np(),
        PrefetchConfig::oba(),
    );
    [
        ("charisma/pafs/ln_agr_is_ppm:1", "charisma", Pafs, agr, 4),
        ("charisma/pafs/np", "charisma", Pafs, np, 4),
        ("charisma/pafs/oba", "charisma", Pafs, oba, 4),
        ("sprite/xfs/ln_agr_is_ppm:1", "sprite", Xfs, agr, 2),
    ]
    .into_iter()
    .map(|(name, workload, system, pf, mb)| {
        let (cfg, wl) = scenario(workload, system, pf, mb);
        (name, cfg, wl)
    })
    .collect()
}

/// A PM config small enough to run in milliseconds but big enough to
/// exercise remote hits, prefetching, write-backs and evictions.
pub fn small_pm(pf: PrefetchConfig, cache_mb: u64) -> SimConfig {
    let mut cfg = SimConfig::pm(CacheSystem::Pafs, pf, cache_mb);
    cfg.machine.nodes = 8;
    cfg.machine.disks = 4;
    cfg
}

/// A small CHARISMA-like workload on the 8 nodes of [`small_pm`].
pub fn small_workload(seed: u64) -> Workload {
    let mut params = CharismaParams::small();
    params.nodes = 8;
    params.generate(seed)
}
