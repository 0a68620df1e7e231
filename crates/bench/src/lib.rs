//! Experiment harness behind the `experiments` binary: the
//! figure/table definitions of the paper's evaluation (§5) and the
//! parallel [`sweep()`] runner every figure and ablation goes through.

pub mod plot;
mod sweep;

pub use sweep::par_map;

use std::fmt::Debug;
use std::sync::Arc;

use ioworkload::charisma::CharismaParams;
use ioworkload::sprite::SpriteParams;
use ioworkload::Workload;
use lap_core::{run_simulation, CacheSystem, SimConfig, SimReport};
use prefetch::PrefetchConfig;
use simkit::SimDuration;

/// The cache sizes of every figure, in MB per node.
pub const CACHE_MBS: [u64; 5] = [1, 2, 4, 8, 16];

/// Which of the two workload/architecture pairs an experiment uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadKind {
    /// CHARISMA-like traces on the parallel machine (PM).
    CharismaPm,
    /// Sprite-like traces on the network of workstations (NOW).
    SpriteNow,
}

/// Experiment scale: paper-like or scaled down for quick runs/benches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Table 1 machines, full synthetic traces. Minutes per figure.
    Paper,
    /// Small machines and traces. Seconds per figure.
    Small,
}

/// What a figure plots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Average read time in ms (Figures 4–7).
    AvgReadMs,
    /// Total disk accesses (Figures 8–11).
    DiskAccesses,
    /// Mean disk writes per written block (Table 2).
    WritesPerBlock,
}

/// One of the paper's evaluation artifacts.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Paper identifier (`fig4` … `fig11`, `table2`).
    pub id: &'static str,
    /// Human description.
    pub title: &'static str,
    /// Workload/architecture pair.
    pub workload: WorkloadKind,
    /// Cooperative-cache system.
    pub system: CacheSystem,
    /// Plotted metric.
    pub metric: Metric,
    /// Restrict to the aggressive algorithms + NP (Figures 8–11 and
    /// Table 2 only plot those).
    pub aggressive_only: bool,
}

/// Every table/figure of §5, in paper order.
pub const EXPERIMENTS: [Experiment; 9] = [
    Experiment {
        id: "fig4",
        title: "Average read time, CHARISMA on PAFS",
        workload: WorkloadKind::CharismaPm,
        system: CacheSystem::Pafs,
        metric: Metric::AvgReadMs,
        aggressive_only: false,
    },
    Experiment {
        id: "fig5",
        title: "Average read time, CHARISMA on xFS",
        workload: WorkloadKind::CharismaPm,
        system: CacheSystem::Xfs,
        metric: Metric::AvgReadMs,
        aggressive_only: false,
    },
    Experiment {
        id: "fig6",
        title: "Average read time, Sprite on PAFS",
        workload: WorkloadKind::SpriteNow,
        system: CacheSystem::Pafs,
        metric: Metric::AvgReadMs,
        aggressive_only: false,
    },
    Experiment {
        id: "fig7",
        title: "Average read time, Sprite on xFS",
        workload: WorkloadKind::SpriteNow,
        system: CacheSystem::Xfs,
        metric: Metric::AvgReadMs,
        aggressive_only: false,
    },
    Experiment {
        id: "fig8",
        title: "Disk accesses, CHARISMA on PAFS",
        workload: WorkloadKind::CharismaPm,
        system: CacheSystem::Pafs,
        metric: Metric::DiskAccesses,
        aggressive_only: true,
    },
    Experiment {
        id: "fig9",
        title: "Disk accesses, CHARISMA on xFS",
        workload: WorkloadKind::CharismaPm,
        system: CacheSystem::Xfs,
        metric: Metric::DiskAccesses,
        aggressive_only: true,
    },
    Experiment {
        id: "fig10",
        title: "Disk accesses, Sprite on PAFS",
        workload: WorkloadKind::SpriteNow,
        system: CacheSystem::Pafs,
        metric: Metric::DiskAccesses,
        aggressive_only: true,
    },
    Experiment {
        id: "fig11",
        title: "Disk accesses, Sprite on xFS",
        workload: WorkloadKind::SpriteNow,
        system: CacheSystem::Xfs,
        metric: Metric::DiskAccesses,
        aggressive_only: true,
    },
    Experiment {
        id: "table2",
        title: "Writes per block, CHARISMA on PAFS",
        workload: WorkloadKind::CharismaPm,
        system: CacheSystem::Pafs,
        metric: Metric::WritesPerBlock,
        aggressive_only: true,
    },
];

/// Find an experiment by id.
pub fn experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS.iter().copied().find(|e| e.id == id)
}

/// Build the workload for a kind/scale/seed. Deterministic.
pub fn build_workload(kind: WorkloadKind, scale: Scale, seed: u64) -> Workload {
    match (kind, scale) {
        (WorkloadKind::CharismaPm, Scale::Paper) => CharismaParams::paper().generate(seed),
        (WorkloadKind::CharismaPm, Scale::Small) => CharismaParams::small().generate(seed),
        (WorkloadKind::SpriteNow, Scale::Paper) => SpriteParams::paper().generate(seed),
        (WorkloadKind::SpriteNow, Scale::Small) => SpriteParams::small().generate(seed),
    }
}

/// Build the simulation config for an experiment cell.
pub fn build_config(
    kind: WorkloadKind,
    scale: Scale,
    system: CacheSystem,
    pf: PrefetchConfig,
    cache_mb: u64,
) -> SimConfig {
    let mut cfg = match kind {
        WorkloadKind::CharismaPm => SimConfig::pm(system, pf, cache_mb),
        WorkloadKind::SpriteNow => SimConfig::now(system, pf, cache_mb),
    };
    match scale {
        Scale::Paper => {
            // Exclude the cold first stretch, like the paper's warm-up
            // trace hours (CHARISMA runs simulate hours, Sprite runs
            // minutes).
            cfg.warmup = match kind {
                WorkloadKind::CharismaPm => SimDuration::from_secs(1200),
                WorkloadKind::SpriteNow => SimDuration::from_secs(60),
            };
        }
        Scale::Small => {
            cfg.machine.nodes = match kind {
                WorkloadKind::CharismaPm => CharismaParams::small().nodes,
                WorkloadKind::SpriteNow => SpriteParams::small().nodes,
            };
            cfg.machine.disks = 4;
        }
    }
    cfg
}

/// The algorithm roster of a figure.
pub fn algorithms(aggressive_only: bool) -> Vec<PrefetchConfig> {
    if aggressive_only {
        vec![
            PrefetchConfig::np(),
            PrefetchConfig::ln_agr_oba(),
            PrefetchConfig::ln_agr_is_ppm(1),
            PrefetchConfig::ln_agr_is_ppm(3),
        ]
    } else {
        PrefetchConfig::paper_suite().to_vec()
    }
}

/// One cell of a figure: an algorithm at a cache size.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Paper name of the algorithm.
    pub algorithm: String,
    /// "Local cache" size in MB per node.
    pub cache_mb: u64,
    /// Full simulation report.
    pub report: SimReport,
}

/// The one sweep: run labelled cells on `workers` workers via
/// [`par_map`] and check that each did real work — a finite, positive
/// read time over at least one read. Results come back in cell order,
/// so every table and CSV is byte-identical for any worker count.
///
/// # Panics
/// On a degenerate cell, naming its label.
pub fn sweep<K: Debug + Sync>(
    cells: Vec<(K, SimConfig, Arc<Workload>)>,
    workers: usize,
) -> Vec<(K, SimReport)> {
    let reports = par_map(&cells, workers, |(key, cfg, wl)| {
        let r = run_simulation(cfg.clone(), Arc::clone(wl));
        assert!(
            r.avg_read_ms.is_finite() && r.avg_read_ms > 0.0 && r.reads > 0,
            "degenerate cell: {key:?}"
        );
        r
    });
    cells
        .into_iter()
        .map(|(key, ..)| key)
        .zip(reports)
        .collect()
}

/// Run a full figure grid (algorithms × cache sizes) through
/// [`sweep()`]. Cells come back in roster order (algorithm, then cache
/// size) regardless of worker count.
pub fn run_grid(
    exp: Experiment,
    scale: Scale,
    seed: u64,
    cache_mbs: &[u64],
    threads: usize,
) -> Vec<Cell> {
    let workload = Arc::new(build_workload(exp.workload, scale, seed));
    let mut cells = Vec::new();
    for pf in algorithms(exp.aggressive_only) {
        for &mb in cache_mbs {
            let cfg = build_config(exp.workload, scale, exp.system, pf, mb);
            cells.push(((pf.paper_name(), mb), cfg, Arc::clone(&workload)));
        }
    }
    sweep(cells, threads)
        .into_iter()
        .map(|((algorithm, cache_mb), report)| Cell {
            algorithm,
            cache_mb,
            report,
        })
        .collect()
}

/// Extract the plotted metric from a cell.
pub fn metric_value(metric: Metric, report: &SimReport) -> f64 {
    match metric {
        Metric::AvgReadMs => report.avg_read_ms,
        Metric::DiskAccesses => report.disk_accesses() as f64,
        Metric::WritesPerBlock => report.writes_per_block,
    }
}

/// Render a figure as the paper would print it: one row per algorithm,
/// one column per cache size.
pub fn render_table(exp: Experiment, cells: &[Cell], cache_mbs: &[u64]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "{} — {}", exp.id, exp.title).unwrap();
    write!(out, "{:<18}", "algorithm").unwrap();
    for mb in cache_mbs {
        write!(out, " {mb:>11}MB").unwrap();
    }
    writeln!(out).unwrap();
    let mut algos: Vec<&str> = Vec::new();
    for c in cells {
        if !algos.contains(&c.algorithm.as_str()) {
            algos.push(&c.algorithm);
        }
    }
    for algo in algos {
        write!(out, "{algo:<18}").unwrap();
        for mb in cache_mbs {
            let cell = cells
                .iter()
                .find(|c| c.algorithm == algo && c.cache_mb == *mb);
            match cell {
                Some(c) => {
                    let v = metric_value(exp.metric, &c.report);
                    match exp.metric {
                        Metric::AvgReadMs => write!(out, " {v:>12.3}").unwrap(),
                        Metric::DiskAccesses => write!(out, " {v:>12.0}").unwrap(),
                        Metric::WritesPerBlock => write!(out, " {v:>12.2}").unwrap(),
                    }
                }
                None => write!(out, " {:>12}", "-").unwrap(),
            }
        }
        writeln!(out).unwrap();
    }
    out
}

/// Render a figure grid as CSV (one line per cell, with the full set of
/// secondary metrics for EXPERIMENTS.md).
pub fn render_csv(exp: Experiment, cells: &[Cell]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "experiment,algorithm,cache_mb,avg_read_ms,disk_reads_demand,disk_reads_prefetch,disk_writes,disk_accesses,writes_per_block,hit_ratio,mispredict_ratio,prefetch_issued,fallback_share,sim_seconds"
    )
    .unwrap();
    for c in cells {
        let r = &c.report;
        writeln!(
            out,
            "{},{},{},{:.6},{},{},{},{},{:.4},{:.6},{:.6},{},{:.6},{:.1}",
            exp.id,
            c.algorithm,
            c.cache_mb,
            r.avg_read_ms,
            r.disk_reads_demand,
            r.disk_reads_prefetch,
            r.disk_writes,
            r.disk_accesses(),
            r.writes_per_block,
            r.cache.hit_ratio(),
            r.mispredict_ratio,
            r.prefetch.issued,
            r.prefetch.fallback_share(),
            r.sim_seconds,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_lookup() {
        assert!(experiment("fig4").is_some());
        assert!(experiment("table2").is_some());
        assert!(experiment("fig99").is_none());
        assert_eq!(EXPERIMENTS.len(), 9);
    }

    #[test]
    fn small_grid_runs_and_renders() {
        let exp = experiment("fig4").unwrap();
        let cells = run_grid(exp, Scale::Small, 7, &[1, 2], 4);
        assert_eq!(cells.len(), 7 * 2);
        let table = render_table(exp, &cells, &[1, 2]);
        assert!(table.contains("Ln_Agr_IS_PPM:1"));
        let csv = render_csv(exp, &cells);
        assert_eq!(csv.lines().count(), 1 + 14);
    }

    #[test]
    fn aggressive_only_roster() {
        assert_eq!(algorithms(true).len(), 4);
        assert_eq!(algorithms(false).len(), 7);
    }

    #[test]
    fn grid_is_deterministic_across_thread_counts() {
        let exp = experiment("fig10").unwrap();
        let a = run_grid(exp, Scale::Small, 3, &[1], 1);
        let b = run_grid(exp, Scale::Small, 3, &[1], 4);
        let va: Vec<f64> = a.iter().map(|c| c.report.avg_read_ms).collect();
        let vb: Vec<f64> = b.iter().map(|c| c.report.avg_read_ms).collect();
        assert_eq!(va, vb);
    }
}
