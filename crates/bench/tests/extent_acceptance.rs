//! Pins the extent ablation's headline result in the exact shape the
//! `experiments extent` command runs (small scale, seed 42, 4 disks,
//! CHARISMA on the PM with PAFS and 4 MB caches): with 4-block
//! extents, extent-granular issue beats per-block issue for
//! Ln_Agr_IS_PPM:3, and degenerates exactly to per-block issue for a
//! non-aggressive algorithm.

use std::sync::Arc;

use bench::{build_config, build_workload, Scale, WorkloadKind};
use lap_core::{run_simulation, CacheSystem, PrefetchGranularity};
use prefetch::PrefetchConfig;

fn run(pf: PrefetchConfig, extent_blocks: u64, gran: PrefetchGranularity) -> lap_core::SimReport {
    let wl = Arc::new(build_workload(WorkloadKind::CharismaPm, Scale::Small, 42));
    let mut cfg = build_config(
        WorkloadKind::CharismaPm,
        Scale::Small,
        CacheSystem::Pafs,
        pf,
        4,
    );
    cfg.machine = cfg.machine.with_geometry_extent(extent_blocks);
    cfg.machine.prefetch_granularity = gran;
    run_simulation(cfg, wl)
}

#[test]
fn extent_mode_beats_block_mode_in_the_ablation_shape() {
    let pf = PrefetchConfig::ln_agr_is_ppm(3);
    let blk = run(pf, 4, PrefetchGranularity::Block);
    let ext = run(pf, 4, PrefetchGranularity::Extent);
    assert!(
        ext.avg_read_ms < blk.avg_read_ms,
        "Ln_Agr_IS_PPM:3 at extent_blocks=4: extent mode ({:.3} ms) did not beat block \
         mode ({:.3} ms)",
        ext.avg_read_ms,
        blk.avg_read_ms
    );
    assert!(ext.prefetch.blocks_per_issue() > 1.0);
}

#[test]
fn extent_mode_is_inert_for_non_aggressive_algorithms() {
    // OBA prefetches but is not aggressive, so the extent granularity
    // switch must change nothing at all.
    let pf = PrefetchConfig::oba();
    let blk = run(pf, 4, PrefetchGranularity::Block);
    let ext = run(pf, 4, PrefetchGranularity::Extent);
    assert_eq!(
        (blk.avg_read_ms.to_bits(), blk.reads, blk.disk_accesses()),
        (ext.avg_read_ms.to_bits(), ext.reads, ext.disk_accesses()),
    );
    assert_eq!(ext.prefetch.extent_batches, 0);
}
