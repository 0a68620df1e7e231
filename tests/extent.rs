//! Extent-granular prefetching guarantees at the whole-simulator
//! level: block mode is bit-identical to the pre-extent simulator on
//! the seed scenarios, one-block extents degenerate extent mode to
//! block mode, extent batches never cross an extent boundary, the A/B
//! determinism contract extends to the new `ExtentIssue` events, and
//! the headline claim — extent-granular issue beats per-block issue
//! for the aggressive configurations on multi-block-extent geometry —
//! actually holds.

use std::sync::Arc;

use lap::prelude::*;

mod common;
use common::{scenario, seed_scenarios};

/// The comparability contract: with the default block granularity the
/// simulator must reproduce the pre-extent seed results *bit for bit*
/// on all four seed scenarios — adding the extent machinery (multi-
/// block jobs, extent-aware striping, run completion paths) must be
/// invisible until it is switched on. The goldens were captured from
/// the simulator before the extent code existed; `to_bits` equality
/// rules out even last-ulp drift.
#[test]
fn block_mode_is_bit_identical_to_seed_results() {
    let golden: [(&str, f64, u64, u64); 4] = [
        ("charisma/pafs/ln_agr_is_ppm:1", 2.644627471515152, 825, 997),
        ("charisma/pafs/np", 4.587226310303037, 825, 849),
        ("charisma/pafs/oba", 4.533400981818182, 825, 852),
        ("sprite/xfs/ln_agr_is_ppm:1", 1.1082858867924534, 1060, 912),
    ];
    for ((name, cfg, wl), (gname, gms, greads, gacc)) in seed_scenarios().into_iter().zip(golden) {
        assert_eq!(name, gname, "scenario roster drifted");
        assert_eq!(
            cfg.machine.prefetch_granularity,
            PrefetchGranularity::Block,
            "block granularity must be the default"
        );
        let r = run_simulation(cfg, wl);
        assert_eq!(
            r.avg_read_ms.to_bits(),
            gms.to_bits(),
            "{name}: avg_read_ms {:?} != golden {:?} — block mode is no longer bit-identical",
            r.avg_read_ms,
            gms
        );
        assert_eq!(
            (r.reads, r.disk_accesses()),
            (greads, gacc),
            "{name}: reads/disk accesses drifted from the seed results"
        );
    }
}

/// One-block extents reduce extent mode to exactly the per-block
/// simulator: same read times, same traffic, same cache behaviour.
/// (The full reports differ only in the batch bookkeeping counters —
/// extent mode counts its degenerate one-block batches.)
#[test]
fn one_block_extents_degenerate_to_block_mode() {
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let mut gcfg = cfg;
    gcfg.machine = gcfg.machine.with_geometry(); // extent_blocks = 1
    let mut ecfg = gcfg.clone();
    ecfg.machine.prefetch_granularity = PrefetchGranularity::Extent;

    let blk = run_simulation(gcfg, wl.clone());
    let ext = run_simulation(ecfg, wl);
    assert_eq!(
        (
            blk.avg_read_ms.to_bits(),
            blk.reads,
            blk.disk_reads_demand,
            blk.disk_reads_prefetch,
            blk.disk_writes,
        ),
        (
            ext.avg_read_ms.to_bits(),
            ext.reads,
            ext.disk_reads_demand,
            ext.disk_reads_prefetch,
            ext.disk_writes,
        ),
        "extent mode on one-block extents must behave exactly like block mode"
    );
    assert_eq!(blk.cache, ext.cache);
    // The degenerate batches are still *accounted* as batches.
    assert_eq!(
        ext.prefetch.extent_batches,
        ext.prefetch.extent_batched_blocks
    );
    assert!(ext.prefetch.extent_batches > 0);
    assert_eq!(blk.prefetch.extent_batches, 0);
}

/// The headline claim of the extent experiment: on geometry with
/// multi-block extents, letting the aggressive walker fetch one extent
/// per linear-limit unit improves mean read time over per-block issue
/// — the batch pays one positioning cost and one walk round trip for
/// the whole extent. (The ablation shape of `experiments extent` is
/// pinned separately in `crates/bench/tests/extent_acceptance.rs`;
/// this one uses the lapsim seed-scenario shape, where Ln_Agr_IS_PPM:1
/// is the reliable winner at moderate extent sizes.)
#[test]
fn extent_mode_beats_block_mode_for_aggressive_configs() {
    for n in [4u64, 8] {
        let (cfg, wl) = scenario(
            "charisma",
            CacheSystem::Pafs,
            PrefetchConfig::ln_agr_is_ppm(1),
            4,
        );
        let mut bcfg = cfg;
        bcfg.machine = bcfg.machine.with_geometry_extent(n);
        let mut ecfg = bcfg.clone();
        ecfg.machine.prefetch_granularity = PrefetchGranularity::Extent;

        let blk = run_simulation(bcfg, wl.clone());
        let ext = run_simulation(ecfg, wl);
        assert!(
            ext.avg_read_ms < blk.avg_read_ms,
            "extent_blocks={n}: Ln_Agr_IS_PPM:1 extent mode ({:.3} ms) did not beat \
             block mode ({:.3} ms)",
            ext.avg_read_ms,
            blk.avg_read_ms
        );
        // The win must come from batching, not from a traffic change
        // the batcher is not allowed to make: blocks-per-issue > 1.
        assert!(
            ext.prefetch.blocks_per_issue() > 1.0,
            "extent_blocks={n}: no multi-block batches were issued"
        );
    }
}

/// A/B determinism with extent events enabled: a traced extent-mode
/// run must equal the no-op run in every metric, the trace must carry
/// `ExtentIssue` batch markers that never cross an extent boundary,
/// and every batched block must still have its per-block
/// `PrefetchIssue` companion.
#[test]
fn extent_traced_run_equals_noop_run_and_events_hold_invariants() {
    use lap::lapobs::Event;

    const EXTENT: u64 = 8;
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let mut ecfg = cfg;
    ecfg.machine = ecfg.machine.with_geometry_extent(EXTENT);
    ecfg.machine.prefetch_granularity = PrefetchGranularity::Extent;
    let wl = Arc::new(wl);

    let baseline = run_simulation(ecfg.clone(), Arc::clone(&wl));
    let run = Simulation::try_new(ecfg, wl, TraceRecorder::new())
        .unwrap()
        .run();
    let (traced, rec) = (run.report, run.rec);
    assert_eq!(baseline, traced, "tracing perturbed extent-mode results");

    let mut batches = 0u64;
    let mut batched_blocks = 0u64;
    let mut issues = 0u64;
    for (_, e) in rec.events() {
        match e {
            Event::ExtentIssue {
                first_block,
                blocks,
                ..
            } => {
                let (first, count) = (*first_block, u64::from(*blocks));
                assert!(count >= 1);
                assert_eq!(
                    first / EXTENT,
                    (first + count - 1) / EXTENT,
                    "batch [{first}, +{count}) crosses an extent boundary"
                );
                batches += 1;
                batched_blocks += count;
            }
            Event::PrefetchIssue { .. } => issues += 1,
            _ => {}
        }
    }
    assert!(batches > 0, "no ExtentIssue events recorded");
    assert_eq!(
        batched_blocks, issues,
        "every batched block must carry a per-block PrefetchIssue companion"
    );
    assert_eq!(traced.prefetch.extent_batches, batches);
    assert_eq!(traced.prefetch.extent_batched_blocks, batched_blocks);
}

/// The batch metrics surface in the unified registry so `lapreport`
/// and the extent ablation can read them.
#[test]
fn extent_metrics_surface_in_registry() {
    let (cfg, wl) = scenario(
        "charisma",
        CacheSystem::Pafs,
        PrefetchConfig::ln_agr_is_ppm(1),
        4,
    );
    let mut ecfg = cfg;
    ecfg.machine = ecfg.machine.with_geometry_extent(8);
    ecfg.machine.prefetch_granularity = PrefetchGranularity::Extent;
    let r = run_simulation(ecfg, wl);
    for needle in [
        "prefetch.extent_batches",
        "prefetch.extent_batched_blocks",
        "prefetch.blocks_per_issue",
    ] {
        assert!(
            r.obs
                .to_csv()
                .lines()
                .any(|l| l.starts_with(&format!("{needle},"))),
            "extent run missing {needle} in registry"
        );
    }
}
